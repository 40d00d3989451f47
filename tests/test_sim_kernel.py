"""Tests for the discrete-event simulator and processes."""

import pytest

from repro.sim import Interrupt, Simulator


class TestScheduling:
    def test_run_empty_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]

    def test_same_time_callbacks_fire_in_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.5, lambda: None)

    def test_run_until_stops_early(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0

    def test_run_until_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=0.5)

    def test_step_executes_one_callback(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(2.0, lambda: log.append(2))
        assert sim.step()
        assert log == [1]
        assert sim.now == 1.0


class TestProcesses:
    def test_process_return_value_via_event(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(worker())
        sim.run()
        assert process.value == "result"

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_processes_interleave(self):
        sim = Simulator()
        log = []

        def worker(name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(worker("a", 1.0, 3))
        sim.process(worker("b", 1.5, 2))
        sim.run()
        # At t=3.0 both fire; "b" scheduled its timeout earlier (t=1.5 vs
        # t=2.0), so insertion order puts it first.
        assert log == [
            (1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a"),
        ]

    def test_yielding_a_generator_spawns_child_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "from child"

        def parent():
            value = yield child()
            return value

        process = sim.process(parent())
        sim.run()
        assert process.value == "from child"

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_unhandled_process_failure_propagates(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(crasher())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_waited_on_failure_is_catchable(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise ValueError("caught me")

        def parent():
            try:
                yield sim.process(crasher())
            except ValueError:
                return "handled"

        process = sim.process(parent())
        sim.run()
        assert process.value == "handled"

    def test_is_alive_lifecycle(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)

        process = sim.process(worker())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        seen = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                seen.append((sim.now, interrupt.cause))

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt("wake up")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        assert seen == [(1.0, "wake up")]

    def test_interrupting_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_stale_wakeup_after_interrupt_is_ignored(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(2.0)
                log.append("timeout fired")
            except Interrupt:
                log.append("interrupted")
            yield sim.timeout(5.0)
            log.append("second sleep done")

        def interrupter(target):
            yield sim.timeout(1.0)
            target.interrupt()

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        # The abandoned 2.0s timeout must not resume the process mid-sleep.
        assert log == ["interrupted", "second sleep done"]
        assert sim.now == 6.0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []

            def worker(name, period):
                for _ in range(5):
                    yield sim.timeout(period)
                    log.append((round(sim.now, 9), name))

            sim.process(worker("x", 0.3))
            sim.process(worker("y", 0.7))
            sim.run()
            return log

        assert trace() == trace()
