"""Tests for event primitives: Event, Timeout."""

import pytest

from repro.sim import Event, Simulator, Timeout


class TestEvent:
    def test_starts_pending(self):
        event = Event()
        assert not event.triggered
        assert not event.ok

    def test_succeed_sets_value(self):
        event = Event()
        event.succeed(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_succeed_default_value_is_none(self):
        event = Event()
        event.succeed()
        assert event.value is None

    def test_double_succeed_rejected(self):
        event = Event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_fail_records_exception(self):
        event = Event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered and not event.ok
        assert event.exception is error

    def test_fail_requires_exception_instance(self):
        event = Event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_raises_while_pending(self):
        event = Event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_value_reraises_failure(self):
        event = Event()
        event.fail(ValueError("bad"))
        with pytest.raises(ValueError):
            _ = event.value

    def test_callback_after_trigger_runs_immediately_when_unbound(self):
        event = Event()
        event.succeed("x")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_fire_on_trigger(self):
        event = Event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(7)
        assert seen == [7]


class TestTimeout:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_fires_at_delay(self):
        sim = Simulator()
        timeout = sim.timeout(3.0, value="done")
        sim.run()
        assert sim.now == 3.0
        assert timeout.value == "done"

    def test_zero_delay_fires_at_current_time(self):
        sim = Simulator()
        sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0

    def test_yielded_unarmed_timeout_is_armed_by_kernel(self):
        sim = Simulator()
        log = []

        def proc():
            yield Timeout(1.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [1.5]
