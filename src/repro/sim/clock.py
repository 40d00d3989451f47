"""A monotonically advancing virtual clock.

The clock is deliberately tiny: it only knows the current simulated time and
how to move it forward. The :class:`~repro.sim.kernel.Simulator` owns a clock
and advances it to each event's timestamp as the event fires.
"""

from __future__ import annotations


class SimClock:
    """Virtual time in seconds, starting at ``start`` (default 0.0).

    Time can only move forward; attempting to move it backwards raises
    ``ValueError`` so that accounting bugs surface immediately instead of
    corrupting measurements.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump the clock forward to ``timestamp`` (must not be in the past)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
