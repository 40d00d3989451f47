"""Tests for :mod:`repro.obs.registry` (counters, gauges, histograms,
Prometheus exposition) and the counter mirror and breaker wiring in
:mod:`repro.obs.bridge`."""

import pytest

from repro.core.metrics import EngineMetrics
from repro.core.resilience import CircuitBreaker
from repro.obs import EngineInstrument, MetricsRegistry
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)


class TestCounter:
    def test_inc_accumulates_per_labelset(self):
        counter = Counter("requests_total")
        counter.inc(engine="sync", status="hit")
        counter.inc(2, engine="sync", status="hit")
        counter.inc(engine="sync", status="miss")
        assert counter.value(engine="sync", status="hit") == 3
        assert counter.value(engine="sync", status="miss") == 1
        assert counter.value(engine="async", status="hit") == 0

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_set_total_is_monotone(self):
        counter = Counter("c_total")
        counter.set_total(5, engine="sync")
        counter.set_total(5, engine="sync")  # equal is fine
        counter.set_total(9, engine="sync")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.set_total(3, engine="sync")
        assert counter.value(engine="sync") == 9

    def test_label_order_is_canonical(self):
        counter = Counter("c_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(4, engine="sync")
        gauge.inc(engine="sync")
        gauge.inc(-2, engine="sync")
        assert gauge.value(engine="sync") == 3

    def test_gauges_may_go_negative(self):
        gauge = Gauge("delta")
        gauge.inc(-5)
        assert gauge.value() == -5


class TestHistogram:
    def test_observe_counts_and_sums(self):
        hist = Histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_negative_sample_rejected(self):
        hist = Histogram("lat")
        with pytest.raises(ValueError, match=">= 0"):
            hist.observe(-0.1)

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        # All mass in the (1, 2] bucket: any percentile lands inside it.
        assert 1.0 <= hist.percentile(50) <= 2.0
        assert 1.0 <= hist.percentile(99) <= 2.0

    def test_percentile_bounds_and_validation(self):
        hist = Histogram("lat", buckets=(1.0, 2.0))
        assert hist.percentile(99) == 0.0  # empty
        hist.observe(10.0)  # +Inf bucket
        assert hist.percentile(99) == 2.0  # clamps to last finite bound
        with pytest.raises(ValueError, match="percentile"):
            hist.percentile(101)

    def test_bucket_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError, match="> 0"):
            Histogram("lat", buckets=(0.0, 1.0))
        with pytest.raises(ValueError, match="distinct"):
            Histogram("lat", buckets=(1.0, 1.0))

    def test_load_samples_reports_exact_totals(self):
        """Mirroring a subsampled reservoir must keep _count/_sum exact."""
        hist = Histogram("lat", buckets=DEFAULT_LATENCY_BUCKETS)
        hist.load_samples(
            [0.01, 0.02, 0.03], total_count=3000, total_sum=60.0, kind="total"
        )
        assert hist.count(kind="total") == 3000
        assert hist.sum(kind="total") == 60.0
        rendered = "\n".join(hist.render())
        assert 'lat_count{kind="total"} 3000' in rendered
        assert 'lat_sum{kind="total"} 60' in rendered

    def test_render_emits_cumulative_buckets_and_inf(self):
        hist = Histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        lines = hist.render()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines


class TestExposition:
    def test_render_full_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_lookups_total", "Lookups.").inc(
            engine="sync", status="hit"
        )
        registry.gauge("repro_hit_rate", "Hit rate.").set(0.75, engine="sync")
        text = registry.render()
        assert "# HELP repro_lookups_total Lookups." in text
        assert "# TYPE repro_lookups_total counter" in text
        assert 'repro_lookups_total{engine="sync",status="hit"} 1' in text
        assert "# TYPE repro_hit_rate gauge" in text
        assert 'repro_hit_rate{engine="sync"} 0.75' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        counter = Counter("c_total")
        counter.inc(path='a"b\\c\nd')
        (line,) = [l for l in counter.render() if not l.startswith("#")]
        assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="metric name"):
            Counter("9bad")
        counter = Counter("ok_total")
        with pytest.raises(ValueError, match="label name"):
            counter.inc(**{"bad-label": "x"})

    def test_values_flattens_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(engine="sync")
        hist = registry.histogram("lat", buckets=(1.0,))
        hist.observe(0.5, engine="sync")
        values = registry.values()
        assert values['c_total{engine="sync"}'] == 1
        assert values['lat_count{engine="sync"}'] == 1
        assert 'lat_p99{engine="sync"}' in values


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        second = registry.counter("c_total")
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_get_returns_registered_or_none(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        assert registry.get("g") is gauge
        assert registry.get("missing") is None


def test_every_engine_counter_lands_in_exactly_one_counter_family():
    """``requests`` is the sum of the lookup statuses; every other counter
    of :class:`EngineMetrics` is exposed once, so a new field cannot go
    missing from ``--metrics-out`` or be exported twice."""
    families = ("repro_lookups_total", "repro_outcomes_total", "repro_events_total")
    exposed = {}
    for name in EngineMetrics().counters():
        registry = MetricsRegistry()
        EngineInstrument(registry, "e").sync(EngineMetrics(**{name: 7}))
        exposed[name] = [
            series
            for family in families
            for series, value in registry.get(family).values().items()
            if value == 7
        ]
    assert exposed.pop("requests") == []
    assert {name: len(series) for name, series in exposed.items() if len(series) != 1} == {}


class TestBreakerWiring:
    """Satellite: breaker state into the registry as a gauge plus a
    transition-event counter, with a deterministic fault script reproducing
    the exact transition sequence."""

    def _script(self, breaker: CircuitBreaker) -> None:
        """closed -> open -> half_open -> open -> half_open -> closed."""
        assert breaker.allow(0.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)  # trips: 2/2 failures >= 0.5 threshold
        assert not breaker.allow(2.5)  # refused while open
        assert breaker.allow(8.0)  # cooldown passed: half_open probe
        breaker.record_failure(8.5)  # probe fails: re-opens
        assert breaker.allow(15.0)  # half_open again
        breaker.record_success(15.5)  # probe succeeds: closes

    EXPECTED = [
        (2.0, "closed", "open"),
        (8.0, "open", "half_open"),
        (8.5, "half_open", "open"),
        (15.0, "open", "half_open"),
        (15.5, "half_open", "closed"),
    ]

    def _breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=0.5,
            window=4,
            min_samples=2,
            open_seconds=5.0,
            half_open_probes=1,
        )

    def test_fault_script_reproduces_exact_transition_sequence(self):
        breaker = self._breaker()
        registry = MetricsRegistry()
        instrument = EngineInstrument(registry, "sync")
        instrument.wire_breaker(breaker)
        self._script(breaker)
        assert list(breaker.transitions) == self.EXPECTED
        transitions = registry.get("repro_breaker_transitions_total")
        assert transitions.value(
            engine="sync", from_state="closed", to_state="open"
        ) == 1
        assert transitions.value(
            engine="sync", from_state="open", to_state="half_open"
        ) == 2
        assert transitions.value(
            engine="sync", from_state="half_open", to_state="open"
        ) == 1
        assert transitions.value(
            engine="sync", from_state="half_open", to_state="closed"
        ) == 1
        # Final state: closed == 0 on the gauge.
        assert registry.get("repro_breaker_state").value(engine="sync") == 0

    def test_gauge_tracks_live_state_changes(self):
        breaker = self._breaker()
        registry = MetricsRegistry()
        EngineInstrument(registry, "sync").wire_breaker(breaker)
        gauge = registry.get("repro_breaker_state")
        assert gauge.value(engine="sync") == 0
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert gauge.value(engine="sync") == 1  # open
        breaker.allow(8.0)
        assert gauge.value(engine="sync") == 2  # half_open

    def test_wiring_after_warmup_replays_history(self):
        breaker = self._breaker()
        self._script(breaker)  # transitions happen before wiring
        registry = MetricsRegistry()
        EngineInstrument(registry, "late").wire_breaker(breaker)
        transitions = registry.get("repro_breaker_transitions_total")
        assert transitions.value(
            engine="late", from_state="open", to_state="half_open"
        ) == 2
        assert registry.get("repro_breaker_state").value(engine="late") == 0

    def test_rerunning_script_doubles_counters_not_state(self):
        breaker = self._breaker()
        registry = MetricsRegistry()
        EngineInstrument(registry, "sync").wire_breaker(breaker)
        self._script(breaker)
        # Shift times so the second pass sees fresh cooldowns.
        assert breaker.allow(20.0)
        breaker.record_failure(21.0)
        breaker.record_failure(22.0)
        transitions = registry.get("repro_breaker_transitions_total")
        assert transitions.value(
            engine="sync", from_state="closed", to_state="open"
        ) == 2
        assert registry.get("repro_breaker_state").value(engine="sync") == 1
