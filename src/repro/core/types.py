"""Leaf datatypes shared across the cache, network, and agent layers.

These are deliberately dependency-free so that every subsystem can import
them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

#: The tool kinds the data client understands.
TOOL_SEARCH = "search"
TOOL_RAG = "rag"
TOOL_FILE = "file"


@dataclass(frozen=True, slots=True)
class Query:
    """One tool-call query emitted by an agent.

    ``fact_id`` is the workload's hidden ground-truth identity — what the
    query is *really* asking. The cache's matching path never reads it; it
    exists so the simulated judger, accuracy scoring, and recalibration's
    ground-truth evaluator can stand in for components the paper runs on
    live models and live APIs.

    ``staticity`` (1-10, optional) annotates how time-invariant the true
    answer is; the staticity *scorer* adds noise on top, so SE metadata is
    imperfect in the same way the paper's is.
    """

    text: str
    tool: str = TOOL_SEARCH
    fact_id: str | None = None
    staticity: int | None = None
    cost: float | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("query text must be non-empty")
        if self.staticity is not None and not 1 <= self.staticity <= 10:
            raise ValueError(f"staticity must be in [1, 10], got {self.staticity}")
        # Freeze metadata so Query stays hashable-by-identity and safe to share.
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    def __getstate__(self) -> dict:
        """Materialize the mapping proxy (proxies cannot pickle)."""
        return {
            "text": self.text,
            "tool": self.tool,
            "fact_id": self.fact_id,
            "staticity": self.staticity,
            "cost": self.cost,
            "metadata": dict(self.metadata),
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "metadata", MappingProxyType(dict(state["metadata"])))


@dataclass(frozen=True, slots=True)
class FetchResult:
    """Outcome of one remote fetch, including everything the SE records.

    ``latency`` is the end-to-end simulated seconds including rate-limit
    queueing and retries; ``service_latency`` is the raw service time of the
    final successful attempt.
    """

    result: str
    latency: float
    service_latency: float
    cost: float
    retries: int = 0
    rate_limited: bool = False
    size_tokens: int = 0
    #: True when this result was produced (or its latency shaped) by a
    #: hedged second flight winning the race, so callers can see which
    #: requests the backup fetch saved.
    hedged: bool = False

    def __post_init__(self) -> None:
        if self.latency < 0 or self.service_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")


@dataclass(frozen=True, slots=True)
class CacheLookup:
    """Outcome of one cache lookup, as reported by the engine.

    ``status`` is one of ``hit``, ``miss``, ``bypass`` (uncacheable tool).
    ``candidates`` counts ANN candidates above the similarity threshold;
    ``judged`` counts how many the judger actually scored.
    """

    status: str
    result: str | None
    latency: float
    ann_latency: float = 0.0
    judge_latency: float = 0.0
    candidates: int = 0
    judged: int = 0
    element_id: int | None = None
    truth_match: bool | None = None

    def __post_init__(self) -> None:
        if self.status not in ("hit", "miss", "bypass"):
            raise ValueError(f"unknown lookup status: {self.status!r}")

    @property
    def is_hit(self) -> bool:
        return self.status == "hit"


def estimate_tokens(text: str) -> int:
    """Crude token count (≈ 4 characters/token, minimum 1) used for SE size."""
    return max(1, len(text) // 4)
