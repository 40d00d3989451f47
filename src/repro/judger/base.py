"""Judger interface shared by the simulated and heuristic implementations.

A judger has one entry point, :meth:`Judger.judge`: the cache validates its
candidates one pair at a time, so there is no batched twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


@dataclass(frozen=True, slots=True)
class JudgeRequest:
    """One validation task: does ``cached_result`` answer ``query_text``?

    ``query_truth`` / ``cached_truth`` are the workload's hidden fact
    identifiers. They exist so the *simulated* judger can act as a noisy
    oracle; implementations that work from text alone (and any production
    judger) must ignore them.
    """

    query_text: str
    cached_query: str
    cached_result: str = ""
    query_truth: str | None = None
    cached_truth: str | None = None


@dataclass(frozen=True, slots=True)
class JudgeVerdict:
    """The judger's output for one candidate.

    ``score`` is a confidence in [0, 1] that the pair is semantically
    equivalent; the cache compares it against ``tau_lsm``. ``truth`` records
    whether the pair was *actually* equivalent when ground truth is known
    (None otherwise) — used only by evaluation and recalibration, never by
    the hit decision.
    """

    score: float
    truth: bool | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"judge score must be in [0, 1], got {self.score}")


@runtime_checkable
class Judger(Protocol):
    """What the cache's validation stage needs from a judger model."""

    def judge(self, request: JudgeRequest) -> JudgeVerdict:
        """Score one (query, cached entry) pair."""
        ...
