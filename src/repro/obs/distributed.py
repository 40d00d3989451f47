"""Cross-process trace propagation for the proc tier and replication links.

The in-process tracers (:mod:`repro.obs.trace`) propagate parents through a
contextvar, which stops working the moment a stage runs in another process:
the shard workers do the embed / ANN / judge work, but the router owns the
request span. This module carries the tree across the socket in three small
pieces, none of which add a syscall to the hot path:

``trace_context(tracer)``
    Router side, per op: captures the current span as a wire-safe
    ``[trace_id, span_id]`` pair (or ``None`` when nothing is being traced,
    which keeps untraced frames byte-identical to before).

:class:`WorkerTracer`
    Worker side: a :class:`~repro.obs.trace.Tracer` whose
    :meth:`~WorkerTracer.activate` installs a *synthetic* parent span built
    from a received context, so the cache's existing ``record_leaf`` call
    sites (embed / ann_search / judge / evict) work unmodified. Completed
    leaf records are drained per reply frame (:meth:`~WorkerTracer.
    drain_wire`) with **raw** ``perf_counter`` timestamps — the worker never
    needs to know the router's epoch.

``graft_spans`` / ``make_span_sink``
    Router side, per reply frame: re-bases each piggybacked record onto the
    router tracer's timeline using the per-worker clock offset estimated at
    the hello handshake (ping/pong midpoint — see
    ``WorkerPool._accept_hello``), assigns a fresh local span id, and lands
    it in the router's span deque. Worker spans render on synthetic
    ``shard-N`` lanes (negative thread ids) in the Chrome export.

Leaf records carry their *parent's* ids, so re-assigning span ids at graft
time is safe: workers only ever record leaves (no intra-worker parent/child
edges cross the wire).

The replication session needs no graft: it opens its ``apply_diff`` span
inside :meth:`Tracer.adopt` of the sending peer's ``repl_sync`` context.
Peer tracers draw trace ids from independent counters, so cross-peer id
collisions are possible in a merged export; DESIGN §16 discusses why that
is accepted.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.obs.trace import Span, Tracer


def trace_context(tracer) -> "list | None":
    """The current span as a wire-safe ``[trace_id, span_id]`` context.

    Returns ``None`` when ``tracer`` is ``None``, nothing is live (the
    :attr:`~repro.obs.trace.Tracer.live` pre-filter — one attribute load on
    the untraced path), or no span is open in this execution context, so
    callers can stamp frames with ``ctx`` unconditionally and untraced
    traffic never grows a frame field.
    """
    if tracer is None or not tracer.live:
        return None
    span = tracer._current.get()
    if span is None:
        return None
    return [span.trace_id, span.span_id]


class WorkerTracer(Tracer):
    """The shard worker's tracer: records stages under *remote* parents.

    ``live`` is an instance count of open remote activations (``0`` when no
    traced request is in the frame), so the cache/sine leaf guards
    short-circuit on one attribute load exactly like an unsampled
    :class:`~repro.obs.trace.SamplingTracer` — a worker serving untraced
    traffic pays one integer truthiness check per stage.
    """

    def __init__(self, max_spans: int = 100_000, clock=None) -> None:
        super().__init__(
            max_spans=max_spans, **({"clock": clock} if clock is not None else {})
        )
        self.live = 0

    @contextmanager
    def activate(self, ctx):
        """Run a block under a remote parent context (``None`` = untraced).

        Builds a synthetic, never-recorded parent span carrying the remote
        ids and installs it as the contextvar current, so every
        ``record_leaf`` inside the block parents under the router's span.
        """
        if ctx is None:
            yield self
            return
        # Span.__new__ + direct slot stores, not the dataclass constructor:
        # this runs once per traced request on the worker's hot path, and
        # the kwargs __init__ costs over a microsecond more (same reasoning
        # as Tracer.span / Tracer.request).
        parent = Span.__new__(Span)
        parent.name = "remote"
        parent.trace_id = ctx[0]
        parent.span_id = ctx[1]
        parent.parent_id = None
        parent.start = parent.end = 0.0
        parent.thread_id = threading.get_ident()
        parent.attrs = None
        token = self._current.set(parent)
        self.live += 1
        try:
            yield self
        finally:
            self.live -= 1
            self._current.reset(token)

    def active(self) -> bool:
        """True only inside an :meth:`activate` block with a real context."""
        return self._current.get() is not None

    def drain_wire(self) -> list:
        """Pop every pending record as codec-friendly wire rows.

        Each row is ``[name, trace_id, parent_span_id, start, end, attrs]``
        with **raw** worker-clock timestamps (no epoch subtraction — the
        router re-bases with its estimated clock offset). Records without a
        remote parent are dropped: they cannot be attributed to any router
        span.
        """
        records: list = []
        spans = self._spans
        while spans:
            try:
                item = spans.popleft()
            except IndexError:  # pragma: no cover - single-threaded worker
                break
            if type(item) is not tuple:
                continue
            name, parent, _span_id, _thread_id, start, end, attrs = item
            if parent is None:
                continue
            records.append([name, parent.trace_id, parent.span_id, start, end, attrs])
        return records


class _RemoteParent:
    """Minimal parent stand-in for grafted leaf tuples.

    ``Tracer._materialize`` only reads ``trace_id`` / ``span_id`` off a leaf
    tuple's parent, so grafting allocates this two-slot shim instead of a
    full :class:`Span` — the graft runs in the router's socket read loop,
    once per traced reply frame.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


def graft_spans(tracer, records, clock_offset: float = 0.0, shard=None) -> int:
    """Land piggybacked worker span records in the router's tracer.

    Timestamps are re-based with ``clock_offset`` (router-clock estimate of
    the worker's reading); span ids are re-drawn from the router's counter
    (safe — the records are leaves, nothing references their worker-side
    ids). ``shard`` labels every span and selects the synthetic negative
    ``thread_id`` lane the Chrome export names ``shard-N``. Returns the
    number of spans grafted.

    Hot-path shape: each record lands as the same compact leaf *tuple*
    ``record_leaf`` appends, materialised into a real :class:`Span` lazily
    at export time — eager ``Span`` construction here cost several
    microseconds per reply on the traced proc path, a measurable slice of
    the <10% overhead budget. One reply's records share a parent, so the
    stand-in is reused across consecutive rows with the same context.
    """
    if tracer is None or not records:
        return 0
    spans = tracer._spans
    max_spans = tracer.max_spans
    ids = tracer._ids
    thread_id = -(shard + 1) if shard is not None else threading.get_ident()
    parent = None
    parent_key = None
    count = 0
    for name, trace_id, parent_id, start, end, attrs in records:
        if shard is not None:
            attrs = {**attrs, "shard": shard} if attrs else {"shard": shard}
        key = (trace_id, parent_id)
        if key != parent_key:
            parent = _RemoteParent(trace_id, parent_id)
            parent_key = key
        if len(spans) == max_spans:
            tracer.dropped += 1
        spans.append(
            (
                name,
                parent,
                next(ids),
                thread_id,
                start + clock_offset,
                end + clock_offset,
                attrs or None,
            )
        )
        count += 1
    return count


def make_span_sink(tracer):
    """Build the ``WorkerPool.span_sink`` callable for a router tracer
    (``None`` tracer -> ``None`` sink, which disables forwarding)."""
    if tracer is None:
        return None

    def sink(shard_id: int, records, clock_offset: float) -> None:
        graft_spans(tracer, records, clock_offset=clock_offset, shard=shard_id)

    return sink
