"""Wiring between the serving/resilience layers and the metrics registry.

The engines' hot paths keep writing their existing
:class:`~repro.core.metrics.EngineMetrics` (plain attribute bumps, no label
hashing); :class:`EngineInstrument` mirrors that state into a
:class:`~repro.obs.registry.MetricsRegistry` on demand — after a run, or
before each snapshot-recorder sample. This keeps tracing/metrics overhead
off the request path entirely while still exposing everything through one
Prometheus-compatible surface:

* ``repro_lookups_total{engine,status}`` — hit / miss / bypass counts;
* ``repro_outcomes_total{engine,outcome}`` — degraded and rejected outcomes
  (stale_hit, failed, overloaded, deadline_exceeded);
* ``repro_events_total{engine,event}`` — the remaining counters (coalesced
  misses, fetch failures, refreshes, evictions, ...);
* ``repro_request_latency_seconds{engine,kind}`` — fixed-bucket histograms
  mirrored from the latency reservoirs (exact ``_count``/``_sum``);
* ``repro_cache_occupancy`` / ``repro_cache_capacity`` /
  ``repro_inflight_requests`` / ``repro_hit_rate`` gauges;
* ``repro_breaker_state`` (0=closed, 1=open, 2=half_open) and
  ``repro_breaker_transitions_total{from_state,to_state}`` — fed *live* by
  :meth:`wire_breaker` through the breaker's transition listener.
"""

from __future__ import annotations

from repro.core.metrics import EngineMetrics
from repro.core.resilience import CircuitBreaker
from repro.obs.registry import MetricsRegistry

#: EngineMetrics field -> ``repro_lookups_total{status=...}`` label.
_LOOKUP_LABEL = {"hits": "hit", "misses": "miss", "bypasses": "bypass"}

#: EngineMetrics field -> ``repro_outcomes_total{outcome=...}`` label.
_OUTCOME_LABEL = {
    "stale_hits": "stale_hit",
    "failed_requests": "failed",
    "overloaded": "overloaded",
    "deadline_exceeded": "deadline_exceeded",
}

#: Every other EngineMetrics counter, mirrored into
#: ``repro_events_total{event=...}`` (``requests`` is the lookups' sum).
EVENT_FIELDS = tuple(
    name
    for name in EngineMetrics().counters()
    if name != "requests" and name not in _LOOKUP_LABEL and name not in _OUTCOME_LABEL
)

#: Latency reservoirs mirrored into ``repro_request_latency_seconds{kind=...}``.
LATENCY_KINDS = (
    ("total", "total_latency"),
    ("hit", "hit_latency"),
    ("miss", "miss_latency"),
    ("cache_check", "cache_check_latency"),
    ("remote", "remote_latency"),
    ("degraded", "degraded_latency"),
)


def breaker_state_value(state: str) -> int:
    """Gauge encoding of a breaker state (0=closed, 1=open, 2=half_open)."""
    return CircuitBreaker.STATES.index(state)


class EngineInstrument:
    """Mirrors one engine's metrics (and optional serving state) into a
    registry under an ``engine=<label>`` label set.

    Construct once per engine per run; call :meth:`sync` whenever the
    registry should reflect current state (once at the end of a run, and
    before every snapshot-recorder sample).
    """

    def __init__(self, registry: MetricsRegistry, engine_label: str) -> None:
        self.registry = registry
        self.engine_label = engine_label
        self._lookups = registry.counter(
            "repro_lookups_total", "Cache lookups by status (hit/miss/bypass)."
        )
        self._outcomes = registry.counter(
            "repro_outcomes_total",
            "Degraded and rejected request outcomes "
            "(stale_hit/failed/overloaded/deadline_exceeded).",
        )
        self._events = registry.counter(
            "repro_events_total", "Engine events (fetch failures, refreshes, ...)."
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Request latency split by kind (simulated seconds).",
        )
        self._occupancy = registry.gauge(
            "repro_cache_occupancy", "Live elements in the cache."
        )
        self._capacity = registry.gauge(
            "repro_cache_capacity", "Configured cache capacity (-1 unbounded)."
        )
        self._inflight = registry.gauge(
            "repro_inflight_requests", "Requests inside the serving section."
        )
        self._hit_rate = registry.gauge(
            "repro_hit_rate", "Validated hits / cacheable requests."
        )
        self._breaker_state = registry.gauge(
            "repro_breaker_state", "Circuit breaker state (0=closed, 1=open, 2=half_open)."
        )
        self._breaker_transitions = registry.counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state transitions by edge.",
        )

    # -- mirroring ----------------------------------------------------------
    def sync(
        self,
        metrics: EngineMetrics,
        cache=None,
        inflight: int | None = None,
    ) -> None:
        """Mirror ``metrics`` (and optional cache/serving state) into the
        registry. Counters are absolute totals (monotone by construction);
        histograms reload from the bounded reservoirs with exact counts."""
        label = self.engine_label
        for fname, status in _LOOKUP_LABEL.items():
            self._lookups.set_total(getattr(metrics, fname), engine=label, status=status)
        for fname, outcome in _OUTCOME_LABEL.items():
            self._outcomes.set_total(getattr(metrics, fname), engine=label, outcome=outcome)
        for fname in EVENT_FIELDS:
            self._events.set_total(getattr(metrics, fname), engine=label, event=fname)
        for kind, attr in LATENCY_KINDS:
            stats = getattr(metrics, attr)
            if stats.count == 0:
                continue
            self._latency.load_samples(
                stats.samples(),
                total_count=stats.count,
                total_sum=stats.total,
                engine=label,
                kind=kind,
            )
        self._hit_rate.set(metrics.hit_rate, engine=label)
        if cache is not None:
            self._occupancy.set(cache.usage(), engine=label)
            capacity = getattr(cache, "capacity_items", None)
            self._capacity.set(capacity if capacity is not None else -1, engine=label)
        if inflight is not None:
            self._inflight.set(inflight, engine=label)

    def wire_breaker(self, breaker: CircuitBreaker) -> None:
        """Attach the breaker's transition listener: every state change
        updates ``repro_breaker_state`` and bumps
        ``repro_breaker_transitions_total{from_state,to_state}`` live.

        Replays transitions already in the breaker's history so wiring after
        warm-up loses nothing.
        """
        label = self.engine_label
        for _, old_state, new_state in breaker.transitions:
            self._breaker_transitions.inc(
                engine=label, from_state=old_state, to_state=new_state
            )
        self._breaker_state.set(breaker_state_value(breaker.state), engine=label)

        def _on_transition(now: float, old_state: str, new_state: str) -> None:
            self._breaker_state.set(breaker_state_value(new_state), engine=label)
            self._breaker_transitions.inc(
                engine=label, from_state=old_state, to_state=new_state
            )

        breaker.on_transition = _on_transition

    def wire_shard_breakers(self, breakers) -> None:
        """Per-shard fault-domain breakers (the proc tier's): mirror each
        shard's state into ``repro_shard_breaker_state{engine,shard}`` and
        its transitions into
        ``repro_shard_breaker_transitions_total{engine,shard,from_state,
        to_state}``, live, via the same listener scheme as
        :meth:`wire_breaker`."""
        state_gauge = self.registry.gauge(
            "repro_shard_breaker_state",
            "Per-shard fault-domain breaker state "
            "(0=closed, 1=open, 2=half_open).",
        )
        transitions = self.registry.counter(
            "repro_shard_breaker_transitions_total",
            "Per-shard fault-domain breaker transitions by edge.",
        )
        label = self.engine_label
        for shard, breaker in enumerate(breakers):
            shard_label = str(shard)
            for _, old_state, new_state in breaker.transitions:
                transitions.inc(
                    engine=label,
                    shard=shard_label,
                    from_state=old_state,
                    to_state=new_state,
                )
            state_gauge.set(
                breaker_state_value(breaker.state), engine=label, shard=shard_label
            )

            def _on_transition(
                now: float, old_state: str, new_state: str, shard_label=shard_label
            ) -> None:
                state_gauge.set(
                    breaker_state_value(new_state), engine=label, shard=shard_label
                )
                transitions.inc(
                    engine=label,
                    shard=shard_label,
                    from_state=old_state,
                    to_state=new_state,
                )

            breaker.on_transition = _on_transition

    def install_probes(
        self, recorder, metrics: EngineMetrics, breaker: CircuitBreaker | None = None
    ) -> None:
        """Register the derived time-series probes a snapshot recorder
        tracks (hit rate, served fraction, stale fraction, p99, breaker
        state). The registry series are the caller's to refresh: it calls
        :meth:`sync` before each sample."""
        label = self.engine_label
        recorder.add_probe(f"hit_rate{{engine=\"{label}\"}}", lambda: metrics.hit_rate)
        recorder.add_probe(
            f"served_fraction{{engine=\"{label}\"}}",
            lambda: metrics.served_fraction,
        )
        recorder.add_probe(
            f"stale_fraction{{engine=\"{label}\"}}",
            lambda: metrics.stale_fraction,
        )
        recorder.add_probe(
            f"p99_latency{{engine=\"{label}\"}}", lambda: metrics.total_latency.p99
        )
        if breaker is not None:
            recorder.add_probe(
                f"breaker_state{{engine=\"{label}\"}}",
                lambda: breaker_state_value(breaker.state),
            )

    def attach_exemplars(self, tracer) -> int:
        """Attach recent request-span trace ids as latency exemplars.

        Every finished ``request`` span in ``tracer`` contributes a
        ``(wall duration, trace_id)`` exemplar to
        ``repro_request_latency_seconds{engine,kind="total"}``. The
        histogram's *samples* are simulated latencies while the exemplar
        values are wall durations — exemplars are links to traces, not
        measurements (DESIGN §16), so the mismatch is deliberate and
        documented rather than papered over. Returns the number attached
        (bounded storage: only the most recent survive).
        """
        if tracer is None:
            return 0
        label = self.engine_label
        attached = 0
        for span in tracer.spans():
            if span.name != "request":
                continue
            self._latency.add_exemplar(
                span.duration, span.trace_id, engine=label, kind="total"
            )
            attached += 1
        return attached
