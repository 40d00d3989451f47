"""Hardening tests for the observability layer: probe failures must not
kill the snapshot recorder, the Prometheus exposition must be byte-stable
(golden file), and exemplars must stay bounded and out of the exposition."""

import asyncio
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, SnapshotRecorder, sample_on_loop
from repro.obs.registry import Histogram

GOLDEN = Path(__file__).resolve().parent / "data" / "metrics_golden.txt"


class ManualClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TestProbeFailureIsolation:
    def test_raising_probe_records_nan_and_counts(self):
        clock = ManualClock()
        recorder = SnapshotRecorder(interval=0.1, clock=clock)
        recorder.add_probe("healthy", lambda: 1.0)
        recorder.add_probe("sick", lambda: 1 / 0)
        for _ in range(3):
            clock.advance(1.0)
            recorder.sample()
        # The healthy series is untouched; the sick one records nan.
        assert recorder.series("healthy") == [1.0, 1.0, 1.0]
        assert all(v != v for v in recorder.series("sick"))
        assert recorder.probe_errors == 3

    def test_probe_errors_surface_as_a_series_only_after_a_failure(self):
        clock = ManualClock()
        recorder = SnapshotRecorder(interval=0.1, clock=clock)
        recorder.add_probe("healthy", lambda: 1.0)
        clock.advance(1.0)
        recorder.sample()
        # Healthy runs keep their exact series set: no error series.
        assert "snapshot_probe_errors" not in recorder.names()
        recorder.add_probe("sick", lambda: 1 / 0)
        clock.advance(1.0)
        recorder.sample()
        assert recorder.to_dict()["series"]["snapshot_probe_errors"][-1] == 1.0
        assert recorder.to_dict()["probe_errors"] == 1

    def test_loop_sampler_survives_raising_probe(self):
        # The regression this guards: one raising probe, or one raising
        # tick, must cost its own interval and never end the run's series.
        clock = ManualClock()
        recorder = SnapshotRecorder(interval=1e-4, clock=clock)
        recorder.add_probe("sick", lambda: 1 / 0)
        recorder.add_probe("healthy", lambda: 1.0)
        ticks = []

        async def run() -> None:
            five = asyncio.Event()

            def tick() -> None:
                ticks.append(clock.now)
                clock.advance(1.0)
                if len(ticks) == 2:
                    raise RuntimeError("tick died")
                recorder.sample()
                if len(recorder) == 5:
                    five.set()

            sampler = asyncio.create_task(sample_on_loop(recorder, tick))
            await asyncio.wait_for(five.wait(), timeout=30)
            sampler.cancel()

        asyncio.run(run())
        assert len(ticks) == 6
        # Tick 2 raised: its row is missing, and only its row.
        assert recorder.times() == [1.0, 3.0, 4.0, 5.0, 6.0]
        assert recorder.series("healthy") == [1.0] * 5
        assert recorder.probe_errors == 5 + 1  # five sick probes, one tick


def build_registry() -> MetricsRegistry:
    """A small, fully deterministic registry for the golden-file check."""
    registry = MetricsRegistry()
    lookups = registry.counter(
        "repro_lookups_total", "Cache lookups by status (hit/miss/bypass)."
    )
    lookups.inc(7, engine="sync", status="hit")
    lookups.inc(3, engine="sync", status="miss")
    lookups.inc(2, engine='q"uoted\\', status="hit")  # escaping path
    occupancy = registry.gauge("repro_cache_occupancy", "Live elements in the cache.")
    occupancy.set(42, engine="sync")
    latency = registry.histogram(
        "repro_request_latency_seconds",
        "Request latency split by kind (simulated seconds).",
        buckets=(0.1, 0.5, 1.0),
    )
    for value in (0.05, 0.3, 0.3, 0.7, 2.5):
        latency.observe(value, engine="sync", kind="total")
    # Exemplars must never perturb the exposition (asserted below).
    latency.add_exemplar(0.7, 12345, engine="sync", kind="total")
    return registry


class TestExpositionGolden:
    def test_render_matches_golden_file(self):
        # Byte-for-byte against the checked-in exposition: scrape output is
        # an interface, and accidental reordering or float-format drift
        # should fail loudly. Regenerate with:
        #   PYTHONPATH=src:tests python -c "from test_obs_hardening import \
        #     build_registry; print(build_registry().render(), end='')" \
        #     > tests/data/metrics_golden.txt
        assert build_registry().render() == GOLDEN.read_text()

    def test_render_is_deterministic_across_construction_order(self):
        baseline = build_registry().render()
        registry = MetricsRegistry()
        # Same state, reversed registration and update order.
        latency = registry.histogram(
            "repro_request_latency_seconds",
            "Request latency split by kind (simulated seconds).",
            buckets=(1.0, 0.5, 0.1),
        )
        for value in (2.5, 0.7, 0.3, 0.3, 0.05):
            latency.observe(value, engine="sync", kind="total")
        registry.gauge("repro_cache_occupancy", "Live elements in the cache.").set(
            42, engine="sync"
        )
        lookups = registry.counter(
            "repro_lookups_total", "Cache lookups by status (hit/miss/bypass)."
        )
        lookups.inc(2, status="hit", engine='q"uoted\\')
        lookups.inc(3, status="miss", engine="sync")
        lookups.inc(7, status="hit", engine="sync")
        assert registry.render() == baseline


class TestExemplars:
    def test_bounded_recent_wins(self):
        hist = Histogram("lat", buckets=(1.0,))
        for i in range(Histogram.max_exemplars + 10):
            hist.add_exemplar(0.5, i, engine="sync")
        rows = hist.exemplars(engine="sync")
        assert len(rows) == Histogram.max_exemplars
        assert rows[-1][1] == Histogram.max_exemplars + 9  # newest kept
        assert rows[0][1] == 10  # oldest rolled off

    def test_bucket_index_and_label_isolation(self):
        hist = Histogram("lat", buckets=(0.1, 1.0))
        hist.add_exemplar(0.05, 1, engine="sync")
        hist.add_exemplar(0.5, 2, engine="sync")
        hist.add_exemplar(5.0, 3, engine="sync")
        assert [row[2] for row in hist.exemplars(engine="sync")] == [0, 1, 2]
        assert hist.exemplars(engine="async") == []

    def test_negative_value_rejected(self):
        hist = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ValueError, match=">= 0"):
            hist.add_exemplar(-0.1, 1)

    def test_exemplars_do_not_leak_into_render_or_values(self):
        hist = Histogram("lat", buckets=(1.0,))
        hist.observe(0.5, engine="sync")
        before_render = hist.render()
        before_values = hist.values()
        hist.add_exemplar(0.5, 987654321, engine="sync")
        assert hist.render() == before_render
        assert hist.values() == before_values
        assert "987654321" not in "\n".join(hist.render())
