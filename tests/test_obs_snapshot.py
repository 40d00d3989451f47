"""Tests for :mod:`repro.obs.snapshot` — interval sampling, probes,
retention, and the JSON dump consumed by experiments and the CI smoke."""

import json
import math

import pytest

from repro.obs import MetricsRegistry, SnapshotRecorder


def make_clock(step: float = 1.0):
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


class ManualClock:
    """A clock tests advance explicitly."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            SnapshotRecorder(interval=0)

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="max_samples"):
            SnapshotRecorder(max_samples=0)


class TestSampling:
    def test_sample_captures_registry_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(engine="sync")
        recorder = SnapshotRecorder(registry, clock=ManualClock())
        row = recorder.sample()
        assert row['c_total{engine="sync"}'] == 1
        counter.inc(engine="sync")
        row = recorder.sample()
        assert row['c_total{engine="sync"}'] == 2
        assert recorder.series('c_total{engine="sync"}') == [1.0, 2.0]

    def test_maybe_sample_gates_on_interval(self):
        clock = ManualClock()
        recorder = SnapshotRecorder(interval=1.0, clock=clock)
        assert recorder.due()  # the first sample is always due
        recorder.sample()
        clock.t = 0.5
        assert not recorder.due()
        clock.t = 1.5
        assert recorder.due()
        recorder.sample()
        assert len(recorder) == 2

    def test_probes_sampled_alongside_registry(self):
        recorder = SnapshotRecorder(clock=ManualClock())
        recorder.add_probe("hit_rate", lambda: 0.5)
        row = recorder.sample()
        assert row["hit_rate"] == 0.5

    def test_probe_exception_records_nan_not_crash(self):
        recorder = SnapshotRecorder(clock=ManualClock())

        def bad() -> float:
            raise RuntimeError("probe died")

        recorder.add_probe("bad", bad)
        recorder.add_probe("good", lambda: 1.0)
        row = recorder.sample()
        assert math.isnan(row["bad"])
        assert row["good"] == 1.0

    def test_retention_bound_drops_oldest(self):
        clock = make_clock()
        recorder = SnapshotRecorder(max_samples=3, clock=clock)
        recorder.add_probe("tick", clock)
        for _ in range(7):
            recorder.sample()
        assert len(recorder) == 3
        assert recorder.dropped == 4
        assert recorder.times() == sorted(recorder.times())

    def test_series_fills_gaps_with_nan(self):
        recorder = SnapshotRecorder(clock=ManualClock())
        recorder.sample()  # no probe yet -> empty row
        recorder.add_probe("late", lambda: 2.0)
        recorder.sample()
        series = recorder.series("late")
        assert math.isnan(series[0])
        assert series[1] == 2.0
        assert recorder.names() == ["late"]


class TestDump:
    def test_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        recorder = SnapshotRecorder(registry, interval=0.5, clock=make_clock())
        recorder.sample()
        recorder.sample()
        data = recorder.to_dict()
        assert data["interval"] == 0.5
        assert data["samples"] == 2
        assert data["dropped"] == 0
        assert len(data["t"]) == 2
        assert data["series"]["depth"] == [3.0, 3.0]

    def test_save_json_parses_and_serialises_nan_as_null(self, tmp_path):
        recorder = SnapshotRecorder(clock=ManualClock())
        recorder.add_probe("bad", lambda: float("nan"))
        recorder.sample()
        path = tmp_path / "series.json"
        count = recorder.save_json(path)
        data = json.loads(path.read_text())  # must be strict-valid JSON
        assert count == data["samples"] == 1
        assert data["series"]["bad"] == [None]
