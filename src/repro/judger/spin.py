"""A CPU-burning judger wrapper for scaling benchmarks.

The simulated judger is deterministic and cheap; real LSM validation is the
CPU-heavy stage the multi-process tier exists to parallelize. To benchmark
that honestly without a model, :class:`SpinningJudger` wraps any judger and
burns a calibrated amount of *GIL-holding* CPU per judged candidate — a
fixed-iteration pure-Python loop, so threads in one process serialize on it
while worker processes run it in parallel.

The burn is iteration-count based, not wall-clock based: a wall-clock spin
would exit after the target elapsed time regardless of how much CPU it was
actually granted, making GIL-starved threads look as fast as processes.
Calibration happens once per process at construction.
"""

from __future__ import annotations

import time

from repro.judger.base import JudgeRequest, Judger, JudgeVerdict


def _calibrate(sample: int = 200_000) -> float:
    """Measure pure-Python loop iterations per second in this process."""
    t0 = time.perf_counter()
    for _ in range(sample):
        pass
    elapsed = time.perf_counter() - t0
    return sample / elapsed if elapsed > 0 else 1e8


def spin_iterations(spin: float) -> int:
    """Calibrate ``spin`` seconds into a loop-iteration count, here and now.

    Calibrate in a quiet parent and pass the result to every
    :class:`SpinningJudger` (the proc tier ships it across the spawn
    boundary in the :class:`~repro.serving.proc.worker.WorkerSpec`):
    calibrating inside a busy process measures a contended loop rate and
    hands that process *less* work per judge, which on an oversubscribed
    host fakes exactly the parallel speedup the spin exists to measure.
    """
    if spin < 0:
        raise ValueError(f"spin must be >= 0, got {spin}")
    return int(spin * _calibrate()) if spin > 0 else 0


class SpinningJudger:
    """Wrap ``inner`` and burn ~``spin`` seconds of CPU per judged pair.

    Scores, determinism, and the ``calls`` counter are the inner judger's;
    only CPU cost is added, so cache decisions are identical to an unspun
    run and benchmark speedups measure parallelism alone.
    """

    def __init__(
        self, inner: Judger, spin: float, iterations: int | None = None
    ) -> None:
        if spin < 0:
            raise ValueError(f"spin must be >= 0, got {spin}")
        self.inner = inner
        self.spin = spin
        # An explicit pre-calibrated count (see spin_iterations) pins the
        # work per judge regardless of how loaded *this* process is.
        self._iterations = (
            iterations if iterations is not None else spin_iterations(spin)
        )

    @property
    def calls(self) -> int:
        return getattr(self.inner, "calls", 0)

    def _burn(self) -> None:
        for _ in range(self._iterations):
            pass

    def judge(self, request: JudgeRequest) -> JudgeVerdict:
        """Burn the calibrated CPU, then delegate to the inner judger."""
        self._burn()
        return self.inner.judge(request)

    def judge_batch(self, requests: list[JudgeRequest]) -> list[JudgeVerdict]:
        """Burn per request (batching saves no judge CPU), then delegate."""
        for _ in requests:
            self._burn()
        return self.inner.judge_batch(requests)

    def __repr__(self) -> str:
        return f"SpinningJudger(spin={self.spin}, inner={self.inner!r})"
