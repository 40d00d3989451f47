"""Unified observability: span tracing, metrics registry, live snapshots.

Three pieces, designed to be attached to any of the serving stacks
(sequential :class:`~repro.core.engine.AsteriaEngine`, asyncio
:class:`~repro.serving.aio.AsyncAsteriaEngine`, and the multi-process
router built on it) without changing their behaviour or — when left
detached — their speed:

:class:`~repro.obs.trace.Tracer`
    Per-request span trees over the pipeline stages (``embed``,
    ``ann_search``, ``judge``, ``remote_fetch``, ``admit``, ``evict``,
    ``stale_refresh``), propagated by contextvars so threads and asyncio
    tasks both attribute stages to the right request. Exports JSONL and
    Chrome ``trace_event`` (Perfetto-openable).
:class:`~repro.obs.registry.MetricsRegistry`
    Labeled counters / gauges / fixed-bucket histograms with Prometheus
    text exposition. The :mod:`~repro.obs.bridge` mirrors
    :class:`~repro.core.metrics.EngineMetrics` and circuit-breaker state
    into it.
:class:`~repro.obs.snapshot.SnapshotRecorder`
    Interval sampling of the registry (plus derived probes: hit rate,
    served fraction, stale fraction, p99, breaker state) into bounded
    time-series, sampled on the serving thread
    (:func:`~repro.obs.snapshot.sample_on_loop` drives it on an event loop).

Two more pieces extend the surface across process boundaries:

:mod:`repro.obs.distributed`
    Trace-context propagation for the proc tier and replication links —
    worker-side stage spans ride reply frames back and graft into the
    router's tree with per-worker clock offsets (DESIGN §16).
:mod:`repro.obs.slo`
    Declarative SLOs with fast/slow-window burn-rate evaluation over
    snapshot series, Prometheus gauges, histogram exemplars, and the
    ``python -m repro slo`` CLI.

See ``python -m repro stress --trace-out trace.json --metrics-out
metrics.prom --series-out series.json`` for the end-to-end CLI surface, and
DESIGN §11 for the span model and bucket-choice rationale.
"""

from repro.obs.bridge import (
    EngineInstrument,
    breaker_state_value,
)
from repro.obs.distributed import (
    WorkerTracer,
    graft_spans,
    make_span_sink,
    trace_context,
)
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    SLOEngine,
    SLOSpec,
    SLOStatus,
    default_slos,
    evaluate_slos,
    format_statuses,
)
from repro.obs.snapshot import SnapshotRecorder, sample_on_loop
from repro.obs.trace import (
    STAGE_ADMIT,
    STAGE_ANN,
    STAGE_EMBED,
    STAGE_EVICT,
    STAGE_JUDGE,
    STAGE_REFRESH,
    STAGE_REMOTE,
    STAGE_REQUEST,
    STAGES,
    SamplingTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EngineInstrument",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STAGES",
    "STAGE_ADMIT",
    "STAGE_ANN",
    "STAGE_EMBED",
    "STAGE_EVICT",
    "STAGE_JUDGE",
    "STAGE_REFRESH",
    "STAGE_REMOTE",
    "STAGE_REQUEST",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "SamplingTracer",
    "SnapshotRecorder",
    "Span",
    "Tracer",
    "WorkerTracer",
    "breaker_state_value",
    "default_slos",
    "evaluate_slos",
    "format_statuses",
    "graft_spans",
    "make_span_sink",
    "sample_on_loop",
    "trace_context",
]
