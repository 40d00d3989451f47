"""Stage-level span tracing for the serving stacks.

A :class:`Tracer` records per-request span trees: every request gets a root
span, and each pipeline stage (``embed``, ``ann_search``, ``judge``,
``remote_fetch``, ``admit``, ``evict``, ``stale_refresh``) becomes a child
span with real wall-clock bounds. Propagation uses a :mod:`contextvars`
variable, which gives the right parent in every execution style at once:

* sequential code nests spans lexically;
* the thread pool works because each thread carries its own context (and the
  request root resets the variable on exit, so pooled threads never leak a
  parent into the next request);
* asyncio works because tasks snapshot their context at creation — a
  single-flight leader task spawned inside request A keeps A's root as its
  parent across every ``await``, while concurrent requests on the same loop
  stay isolated.

Finished spans land in a bounded deque (``append`` is atomic under the GIL,
so recording is thread-safe without a hot-path lock) and export as JSONL or
as a Chrome ``trace_event`` file that opens directly in Perfetto /
``chrome://tracing``.

Two recording styles, chosen per call site by cost:

* ``with tracer.request(...)`` / ``with tracer.span(...)`` — context-manager
  spans that install themselves as the current contextvar value, so child
  stages parent correctly. Use for spans that can have children.
* ``t0 = tracer.clock(); ...; tracer.record_leaf(name, t0)`` — one-call
  recording for *leaf* stages (``embed``, ``ann_search``, ``judge``,
  ``remote_fetch``, ``evict``) that never open children. This skips the
  context-manager protocol and the contextvar set/reset entirely — one
  Python frame instead of three, on a path that runs ~6 times per traced
  request. A leaf whose work raises records nothing;
  the failure stays visible as the root span's ``outcome``.

Engines hold ``tracer = None`` by default and guard every instrumentation
point with one ``is None`` check, so tracing-off overhead is a branch per
stage.

For always-on production tracing, :class:`SamplingTracer` records 1-in-N
requests. Engines decide once per request via :meth:`Tracer.sample` and
run the skipped N-1 down the very same branch as tracing off, and stage
sites pre-filter on the :attr:`Tracer.live` attribute (one load) before
the per-context :meth:`Tracer.active` check, which holds the measured
overhead under 1% at ``sample_every=100``. Metrics stay exact — sampling
thins the *span record*, never the engine's counters.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

#: Canonical stage names (span ``name`` values the exporters group by).
STAGE_REQUEST = "request"
STAGE_EMBED = "embed"
STAGE_ANN = "ann_search"
STAGE_JUDGE = "judge"
STAGE_REMOTE = "remote_fetch"
STAGE_ADMIT = "admit"
STAGE_EVICT = "evict"
STAGE_REFRESH = "stale_refresh"

STAGES = (
    STAGE_REQUEST,
    STAGE_EMBED,
    STAGE_ANN,
    STAGE_JUDGE,
    STAGE_REMOTE,
    STAGE_ADMIT,
    STAGE_EVICT,
    STAGE_REFRESH,
)


class Span:
    """One timed section of work; a node in a request's span tree.

    ``start``/``end`` are seconds since the owning tracer's epoch (its
    creation instant), so exported timestamps stay small and comparable
    across threads. ``attrs`` holds user labels (tool, outcome, counts).

    The span doubles as its own context manager (rather than wrapping it in
    a separate guard object) so opening a stage costs exactly one
    allocation on the hot path.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "thread_id",
        "attrs",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        start: float,
        thread_id: int,
        attrs: dict | None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = start
        self.thread_id = thread_id
        self.attrs = attrs
        self._tracer = None
        self._token = None

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Finishing is inlined here (not a tracer method call): the deque
        # append is atomic under the GIL, so no lock is needed on the hot
        # path; the lock guards only the (rare) drop counter, where the
        # check-then-count race can at worst undercount a drop two threads
        # caused together — the deque itself always stays bounded.
        tracer = self._tracer
        tracer._current.reset(self._token)
        self._token = None
        self._tracer = None
        self.end = tracer.clock() - tracer._epoch
        spans = tracer._spans
        if len(spans) == tracer.max_spans:
            with tracer._lock:
                tracer.dropped += 1
        spans.append(self)

    def set(self, **attrs) -> None:
        """Attach labels to the span (outcome, judged count, ...)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Wall seconds between start and finish."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """Plain-dict form (the JSONL export row)."""
        row = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 9),
            "end": round(self.end, 9),
            "duration": round(self.duration, 9),
            "thread_id": self.thread_id,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, trace={self.trace_id}, "
            f"duration={self.duration * 1e6:.1f}us)"
        )


class Tracer:
    """Collects span trees from any mix of threads and event loops.

    Parameters
    ----------
    max_spans:
        Bound on retained finished spans; the oldest are dropped beyond it
        (counted in :attr:`dropped`), so a long soak cannot grow memory.
    clock:
        Monotonic clock (injectable for tests); defaults to
        :func:`time.perf_counter`. Exposed as the plain attribute
        :attr:`clock` so leaf call sites read timestamps with a single C
        call and no Python frame.
    """

    def __init__(self, max_spans: int = 100_000, clock=time.perf_counter) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.clock = clock
        self._epoch = clock()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            f"repro-span-{id(self):x}", default=None
        )
        #: Remote parent context adopted via :meth:`adopt` — request roots
        #: opened inside it graft under a span owned by another process
        #: (the ProcServer's serve op sets it from the client's stamp).
        self._remote: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
            f"repro-remote-{id(self):x}", default=None
        )
        self.dropped = 0

    # -- recording ----------------------------------------------------------
    # span() and request() build spans inline via Span.__new__ rather than
    # sharing a helper or calling Span(...): at ~6 spans per traced request
    # each saved call frame shows up in tracing-on overhead.
    def span(self, name: str, **attrs) -> Span:
        """Open a stage span under the current span (or as a root)."""
        current = self._current
        parent = current.get()
        span = Span.__new__(Span)
        span.name = name
        span_id = next(self._ids)
        span.span_id = span_id
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = span_id
            span.parent_id = None
        span.start = span.end = self.clock() - self._epoch
        span.thread_id = threading.get_ident()
        span.attrs = attrs or None
        span._tracer = self
        span._token = current.set(span)
        return span

    def record_leaf(self, name: str, start: float, attrs: dict | None = None) -> None:
        """Record an already-finished *leaf* stage in a single call.

        ``start`` is a raw :attr:`clock` reading taken before the stage ran
        (``t0 = tracer.clock()``); the finish instant is read here. The leaf
        parents under the current contextvar span like :meth:`span`, but is
        never installed as the current context, so :meth:`current` keeps
        answering the *parent* throughout. Use for stages that cannot open
        child spans (``embed``, ``ann_search``, ``judge``, ``remote_fetch``,
        ``evict``).

        Hot-path cost is the point: no :class:`Span` object is built here —
        the call appends one compact tuple (every field a C-level load) and
        :meth:`spans` materialises real ``Span`` objects lazily at
        export time. The span id is drawn *now*, so repeated
        materialisation is deterministic. In-situ this records a leaf in
        well under a microsecond, where eagerly building the ten-slot Span
        cost several times that with cold caches.
        """
        parent = self._current.get()
        spans = self._spans
        if len(spans) == self.max_spans:
            with self._lock:
                self.dropped += 1
        spans.append(
            (
                name,
                parent,
                next(self._ids),
                parent.thread_id if parent is not None else threading.get_ident(),
                start,
                self.clock(),
                attrs,
            )
        )

    def _materialize(self, record: tuple) -> Span:
        """Build the real :class:`Span` for one pending leaf tuple (pure —
        ids were fixed at record time, so repeated calls agree)."""
        name, parent, span_id, thread_id, start, end, attrs = record
        epoch = self._epoch
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = span_id
            parent_id = None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start=start - epoch,
            thread_id=thread_id,
            attrs=attrs,
        )
        span.end = end - epoch
        return span

    def request(self, name: str = STAGE_REQUEST, **attrs) -> Span:
        """Open a request *root* span (ignores any inherited parent).

        Worker threads and event-loop tasks both funnel requests through
        this, so a pooled thread's leftover context can never reparent an
        unrelated request. Inside an :meth:`adopt` block the root joins the
        remote caller's trace instead of starting a fresh one.
        """
        span = Span.__new__(Span)
        span.name = name
        span_id = next(self._ids)
        span.span_id = span_id
        remote = self._remote.get()
        if remote is not None:
            span.trace_id = remote[0]
            span.parent_id = remote[1]
        else:
            span.trace_id = span_id
            span.parent_id = None
        span.start = span.end = self.clock() - self._epoch
        span.thread_id = threading.get_ident()
        span.attrs = attrs or None
        span._tracer = self
        span._token = self._current.set(span)
        return span

    @contextmanager
    def adopt(self, ctx):
        """Adopt a remote ``[trace_id, span_id]`` parent for the duration.

        Request roots opened inside the block carry the remote trace id and
        parent under the remote span, so a front-door client's span and the
        router's request span merge into one tree when exports are viewed
        together. ``ctx=None`` is a no-op, letting call sites adopt
        unconditionally.
        """
        if ctx is None:
            yield self
            return
        token = self._remote.set((ctx[0], ctx[1]))
        try:
            yield self
        finally:
            self._remote.reset(token)

    def current(self) -> Span | None:
        """The innermost open span in this context (None outside requests)."""
        return self._current.get()

    #: Cheap pre-filter for leaf guards: truthy whenever a stage recorded
    #: *now* could possibly be kept. The base tracer keeps everything, so
    #: this is a class constant; :class:`SamplingTracer` maintains it as a
    #: count of open sampled roots. Guards read it as one attribute load
    #: before paying for the :meth:`active` method call — the difference
    #: is ~300ns/request on the unsampled path, which is most of the <1%
    #: sampled-overhead budget.
    live = True

    def sample(self) -> bool:
        """Per-request sampling gate; call before opening a request root.

        Always True here — the base tracer records everything. Engines
        gate with ``if tracer is None or not tracer.sample(): <untraced
        path>`` so an unsampled request runs the *same* branch as tracing
        off: :class:`SamplingTracer` answers False for the skipped N-1 and
        its :meth:`request` is then never called for them.
        """
        return True

    def active(self) -> bool:
        """Would a stage recorded *now* be kept?

        Always True here — the base tracer records everything. Call sites
        that pay per-stage costs *before* recording (a clock read, an attrs
        dict) guard with ``tracer is None or not tracer.live or not
        tracer.active()``: the ``live`` attribute filters out the common
        nothing-sampled case for free, and ``active()`` settles the
        per-context answer when a sampled request is open somewhere.
        """
        return True

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> list[Span]:
        """Finished spans, oldest first (a snapshot copy; ``list`` over a
        deque is a single C call, so it is safe against concurrent appends).
        Pending leaf tuples are materialised into ``Span`` objects here —
        deterministically, so repeated calls agree on ids."""
        materialize = self._materialize
        return [
            materialize(item) if type(item) is tuple else item
            for item in list(self._spans)
        ]

    def stage_summary(self) -> dict[str, dict]:
        """Per-stage aggregate: count, total/mean wall seconds."""
        totals: dict[str, list[float]] = {}
        for span in self.spans():
            totals.setdefault(span.name, []).append(span.duration)
        return {
            name: {
                "count": len(durations),
                "total": sum(durations),
                "mean": sum(durations) / len(durations),
            }
            for name, durations in sorted(totals.items())
        }

    # -- export -------------------------------------------------------------
    def export_jsonl(self, path: "str | Path") -> int:
        """Write one JSON object per finished span; returns the span count."""
        rows = [json.dumps(span.to_dict(), allow_nan=False) for span in self.spans()]
        Path(path).write_text("\n".join(rows) + ("\n" if rows else ""))
        return len(rows)

    def export_chrome(self, path: "str | Path") -> int:
        """Write a Chrome ``trace_event`` JSON file (Perfetto-compatible).

        Spans become complete (``"ph": "X"``) events with microsecond
        timestamps; the originating thread becomes the ``tid`` lane, so the
        thread pool's parallelism is visible as stacked lanes.
        """
        spans = self.spans()
        # Compact tids: Perfetto renders one lane per (pid, tid).
        tids: dict[int, int] = {}
        events = []
        for span in spans:
            tid = tids.setdefault(span.thread_id, len(tids))
            event = {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **(span.attrs or {}),
                },
            }
            events.append(event)
        for thread_id, tid in tids.items():
            # Negative thread ids are the synthetic per-shard lanes grafted
            # worker spans land on (repro.obs.distributed.graft_spans).
            lane = (
                f"shard-{-thread_id - 1}" if thread_id < 0 else f"thread-{thread_id}"
            )
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        Path(path).write_text(json.dumps(payload, allow_nan=False))
        return len(spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self)}, dropped={self.dropped})"


class _SkipSpan:
    """Inert stand-in handed out for stage spans in unsampled contexts.

    Supports everything engines do to a real span — context-manager
    protocol, ``set(...)``, bare ``attrs`` assignment — and records
    nothing. A single module-level instance is shared (``attrs`` writes
    race harmlessly across threads: every value is discarded), so an
    unsampled request allocates zero objects in the tracer.
    """

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs = None

    def __enter__(self) -> "_SkipSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> None:
        return None

    @property
    def duration(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "Span(<unsampled>)"


_SKIP_SPAN = _SkipSpan()


class _SampledRoot(Span):
    """Root span of a sampled request.

    Identical to :class:`Span` except that closing it retires the owning
    tracer's ``live`` pre-filter count, so leaf guards fall back to the
    one-attribute-load fast path as soon as no sampled request is open.
    """

    __slots__ = ()

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        Span.__exit__(self, exc_type, exc, tb)
        with tracer._lock:
            tracer.live -= 1


class SamplingTracer(Tracer):
    """A tracer that records 1-in-``sample_every`` requests.

    The decision lives in :meth:`sample`: engines call it once per request
    (``if tracer is None or not tracer.sample():``) and take the *same*
    untraced branch as ``tracer is None`` for the skipped N-1, so an
    unsampled request pays one counter tick and nothing else at the root.
    :meth:`request` is only reached for sampled requests and always
    installs a real root span.

    Stage sites inside the pipeline cannot see that per-request decision
    directly, so they are filtered twice, cheap to exact: the ``live``
    attribute counts currently-open sampled roots (one attribute load —
    False means nothing anywhere is being traced), and :meth:`active`
    settles the per-context answer through the contextvar when some
    request *is* being sampled concurrently. Because child stages parent
    through the contextvar, everything inside an unsampled request is
    skipped automatically even ungated: :meth:`span` returns the inert
    shared skip span and :meth:`record_leaf` drops the record.

    The deterministic modulo schedule (first request sampled, then every
    Nth) keeps runs reproducible; the counter is an
    :class:`itertools.count`, atomic under the GIL, so the schedule holds
    across the thread pool too. Engine metrics are computed outside the
    tracer and stay exact at any sampling rate.

    ``sampled`` / ``skipped`` are informational counters (updates are
    benign races under threads; the schedule itself never races).
    """

    def __init__(
        self,
        sample_every: int = 100,
        max_spans: int = 100_000,
        clock=time.perf_counter,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        super().__init__(max_spans=max_spans, clock=clock)
        self.sample_every = sample_every
        self.sampled = 0
        self.skipped = 0
        self.live = 0
        self._tick = itertools.count()

    def sample(self) -> bool:
        if next(self._tick) % self.sample_every:
            self.skipped += 1
            return False
        self.sampled += 1
        return True

    def request(self, name: str = STAGE_REQUEST, **attrs) -> Span:
        span = _SampledRoot.__new__(_SampledRoot)
        span.name = name
        span_id = next(self._ids)
        span.span_id = span_id
        remote = self._remote.get()
        if remote is not None:
            span.trace_id = remote[0]
            span.parent_id = remote[1]
        else:
            span.trace_id = span_id
            span.parent_id = None
        span.start = span.end = self.clock() - self._epoch
        span.thread_id = threading.get_ident()
        span.attrs = attrs or None
        span._tracer = self
        with self._lock:
            self.live += 1
        span._token = self._current.set(span)
        return span

    def span(self, name: str, **attrs) -> "Span | _SkipSpan":
        if self._current.get() is None:
            return _SKIP_SPAN
        return super().span(name, **attrs)

    def record_leaf(self, name: str, start: float, attrs: dict | None = None) -> None:
        if self._current.get() is None:
            return
        super().record_leaf(name, start, attrs)

    def active(self) -> bool:
        """True only inside a sampled request's span tree."""
        return self._current.get() is not None

    def __repr__(self) -> str:
        return (
            f"SamplingTracer(1/{self.sample_every}, sampled={self.sampled}, "
            f"skipped={self.skipped}, spans={len(self)})"
        )
