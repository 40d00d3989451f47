"""Awaitable event primitives for the simulation kernel.

Processes (see :mod:`repro.sim.kernel`) are Python generators that ``yield``
the objects defined here. Yielding suspends the process until the event
*triggers*, at which point the kernel resumes the generator with the event's
value (or throws the event's exception into it).

The primitives mirror a small, well-trodden subset of SimPy's API:

``Event``
    A one-shot event triggered manually via :meth:`Event.succeed` or
    :meth:`Event.fail`.
``Timeout``
    An event that triggers after a fixed simulated delay.
``Interrupt``
    The exception raised inside a process that another process interrupted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Simulator

_PENDING = object()


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    ``cause`` carries whatever object the interrupter supplied.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; it can be triggered exactly once, either
    successfully (with a value) or as a failure (with an exception). Callbacks
    registered before the trigger fire when it triggers; callbacks registered
    afterwards fire immediately (via the simulator, preserving event
    ordering).
    """

    def __init__(self, sim: "Simulator | None" = None) -> None:
        self._sim = sim
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["Event"], None]] = []
        #: Set when at least one consumer observed the failure, suppressing
        #: the kernel's crash-on-unhandled-failure behaviour.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event is pending or failed."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exception

    # -- binding ----------------------------------------------------------
    def _bind(self, sim: "Simulator") -> None:
        if self._sim is None:
            self._sim = sim
        elif self._sim is not sim:
            raise RuntimeError("event is bound to a different simulator")

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self._value = value
        self._run_callbacks()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._exception = exception
        self._run_callbacks()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run once the event triggers."""
        if self.triggered:
            self._dispatch(callback)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._dispatch(callback)

    def _dispatch(self, callback: Callable[["Event"], None]) -> None:
        if self._sim is not None:
            self._sim._schedule(0.0, lambda: callback(self))
        else:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else f"failed({self._exception!r})"
        return f"{type(self).__name__}({state})"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after it is yielded.

    The timeout is armed lazily: construction records the delay, and the
    kernel schedules the trigger when a process yields it (or when it is
    created through :meth:`Simulator.timeout`, which arms it immediately).
    """

    def __init__(self, delay: float, value: Any = None) -> None:
        super().__init__(sim=None)
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)
        self._timeout_value = value
        self._armed = False

    def _arm(self, sim: "Simulator") -> None:
        if self._armed:
            return
        self._bind(sim)
        self._armed = True
        sim._schedule(self.delay, lambda: self.succeed(self._timeout_value))
