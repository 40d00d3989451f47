"""The discrete-event simulator and its process abstraction.

A :class:`Simulator` owns a virtual clock and a priority queue of scheduled
callbacks. *Processes* are plain Python generators that model concurrent
activities: each ``yield`` hands an awaitable event to the kernel, which
suspends the generator until the event triggers and then resumes it with the
event's value.

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("a", 2.0))
>>> _ = sim.process(worker("b", 1.0))
>>> sim.run()
2.0
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

from repro.sim.clock import SimClock
from repro.sim.events import Event, Timeout


class Process(Event):
    """A running process; also an event that triggers when the process ends.

    The process's success value is the generator's ``return`` value. If the
    generator raises, the process fails with that exception; if nothing is
    waiting on the process, the exception propagates out of
    :meth:`Simulator.run` so that bugs never pass silently.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._had_waiters = False
        self._crash: BaseException | None = None
        sim._schedule(0.0, lambda: self._step(None, None))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        """Register a completion callback (marks the failure as handled)."""
        self._had_waiters = True
        super().add_callback(callback)

    def _step(self, value: Any, exception: BaseException | None) -> None:
        if self.triggered:
            return
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated via the event
            self._crash = exc
            self.fail(exc)
            assert self._sim is not None
            self._sim._note_failed_process(self)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        assert self._sim is not None
        sim = self._sim
        if isinstance(target, Generator):
            target = sim.process(target)
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances or generators"
            )
        target._bind(sim)
        if isinstance(target, Timeout):
            target._arm(sim)
        target.add_callback(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        if event.ok:
            self._step(event.value, None)
        else:
            event.defused = True
            self._step(None, event.exception)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self.ok else "failed")
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Scheduled callbacks fire in (time, insertion order) so that two runs of
    the same program produce identical traces. The simulator never consults
    wall-clock time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._failed: list[Process] = []

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock.now

    @property
    def clock(self) -> SimClock:
        """The underlying :class:`~repro.sim.clock.SimClock`."""
        return self._clock

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._clock.now + delay, next(self._counter), callback)
        )

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        self._schedule(delay, callback)

    # -- factories ------------------------------------------------------------
    def event(self) -> Event:
        """Create a pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create and arm a :class:`Timeout`."""
        timeout = Timeout(delay, value)
        timeout._arm(self)
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process; returns the process handle."""
        return Process(self, generator, name)

    # -- execution --------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback; returns False if none remain."""
        if not self._queue:
            return False
        timestamp, _, callback = heapq.heappop(self._queue)
        self._clock.advance_to(timestamp)
        callback()
        self._raise_unhandled_failures()
        return True

    def run(self, until: float | None = None) -> float:
        """Run until the event queue drains or simulated time reaches ``until``.

        Returns the simulated time at which the run stopped.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while self._queue:
            timestamp = self._queue[0][0]
            if until is not None and timestamp > until:
                self._clock.advance_to(until)
                return self.now
            self.step()
        if until is not None:
            self._clock.advance_to(until)
        return self.now

    # -- failure policy ----------------------------------------------------------
    def _note_failed_process(self, process: Process) -> None:
        self._failed.append(process)
        # Give same-timestamp consumers a chance to observe the failure
        # before the run loop decides whether it is unhandled.
        self._schedule(0.0, lambda: None)

    def _raise_unhandled_failures(self) -> None:
        if not self._failed:
            return
        failed, self._failed = self._failed, []
        for process in failed:
            if process.defused or process._had_waiters:
                continue
            assert process._crash is not None
            raise process._crash

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.6f}, pending={len(self._queue)})"


__all__ = ["Process", "Simulator"]
