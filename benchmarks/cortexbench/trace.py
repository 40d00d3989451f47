"""Span recording around the program's public entry points.

The traced pass wraps bound methods of the objects the benchmark built —
``cache.lookup``, ``index.search``, ``client.serve`` — with a timer that
appends one row per call. Nothing inside ``repro`` changes and the untraced
pass never imports this module's wrappers. Rows stay in memory and are
written out when the pass ends.

A row is ``(name, start, end, parent, request, value)``: ``parent`` is the
index of the span that was open when this one began (-1 for a root),
``request`` the request it belongs to, and ``value`` an optional number the
call site derives from the arguments or result (candidates returned, bytes
encoded). The open span and the request live in context variables, so the
same recorder serves the one-caller sync engine and the server's event loop,
where a single-flight leader task inherits its request's context.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Spans:
    def __init__(self) -> None:
        self.rows: list[tuple | None] = []
        self._open: contextvars.ContextVar[int] = contextvars.ContextVar(
            "cortexbench-open-span", default=-1
        )
        self.request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "cortexbench-request", default=-1
        )

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around each call; ``note(args, result)`` fills
        the row's value."""
        rows, open_span, request = self.rows, self._open, self.request

        def call(*args, **kwargs):
            parent = open_span.get()
            index = len(rows)
            rows.append(None)
            token = open_span.set(index)
            value = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, result)
                return result
            finally:
                rows[index] = (name, start, _clock(), parent, request.get(), value)
                open_span.reset(token)

        return call

    def wrap_async(self, name: str, fn, note=None):
        rows, open_span, request = self.rows, self._open, self.request

        async def call(*args, **kwargs):
            parent = open_span.get()
            index = len(rows)
            rows.append(None)
            token = open_span.set(index)
            value = None
            start = _clock()
            try:
                result = await fn(*args, **kwargs)
                if note is not None:
                    value = note(args, result)
                return result
            finally:
                rows[index] = (name, start, _clock(), parent, request.get(), value)
                open_span.reset(token)

        return call

    def instrument(self, obj, layer: str, methods, notes=None, is_async=False) -> None:
        """Shadow ``obj``'s bound ``methods`` with recording wrappers named
        ``layer.method``. Only calls that go through the instance see them,
        which is every call the program makes across a layer boundary."""
        wrap = self.wrap_async if is_async else self.wrap
        for method in methods:
            note = notes.get(method) if notes else None
            setattr(obj, method, wrap(f"{layer}.{method}", getattr(obj, method), note))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and the value sum.

        Self time is a span's duration minus its children's; rows reference
        parents by index, so unfinished spans must stay in place.
        """
        children = [0.0] * len(self.rows)
        for row in self.rows:
            if row is not None and row[3] >= 0:
                children[row[3]] += row[2] - row[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "value": 0.0, "min_self": 0.0}
        )
        for index, row in enumerate(self.rows):
            if row is None:
                continue
            entry = out[row[0]]
            own = row[2] - row[1] - children[index]
            entry["calls"] += 1
            entry["total"] += row[2] - row[1]
            entry["self"] += own
            entry["min_self"] = min(entry["min_self"], own)
            if row[5] is not None:
                entry["value"] += row[5]
        return dict(out)

    def leaf_seconds(self) -> float:
        """Time in spans that have no children: the layers that do the work,
        as opposed to the ones that call them."""
        has_child = set()
        for row in self.rows:
            if row is not None and row[3] >= 0:
                has_child.add(row[3])
        return sum(
            row[2] - row[1]
            for index, row in enumerate(self.rows)
            if row is not None and index not in has_child
        )


def write_spans(path, groups: dict[str, list]) -> None:
    """One JSON object per finished span; ``process`` tells client rows from
    server rows (``parent`` indexes within a process, ``request`` joins
    across them)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for process, rows in groups.items():
            for index, row in enumerate(rows):
                if row is None:
                    continue
                name, start, end, parent, request, value = row
                handle.write(
                    json.dumps(
                        {
                            "process": process,
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "value": value,
                        }
                    )
                    + "\n"
                )
