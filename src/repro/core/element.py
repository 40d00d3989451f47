"""The Semantic Element (SE): Asteria's cache unit (§4.1, Figure 5).

An SE is a key-value pair — the agent's tool query is the semantic key, the
retrieved information is the value — augmented with the metadata every cache
policy decision reads: the embedding fingerprint, a 1-10 staticity score,
access frequency, the original retrieval latency and cost, the size in
tokens, and TTL bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class SemanticElement:
    """One cached (query, result) pair with performance-aware metadata.

    Attributes
    ----------
    element_id:
        Unique integer key, also the ANN-index key.
    key:
        The canonical query text (the semantic key).
    value:
        The retrieved result (the cached knowledge).
    embedding:
        Unit-norm embedding of ``key`` — the semantic fingerprint.
    tool:
        Which tool produced the value (search / rag / file).
    truth_key:
        Hidden ground-truth fact identity of the query that created this
        element. Read only by ground-truth machinery, never by matching.
    staticity:
        1-10 fact-likeness score from the staticity scorer (10 = stable).
    frequency:
        Number of validated cache hits served by this element.
    retrieval_latency:
        Seconds the original remote fetch took (drives LCFU).
    retrieval_cost:
        Dollars the original remote fetch cost (drives LCFU).
    size_tokens:
        Value size in tokens (LCFU normalises by it).
    created_at / last_accessed_at / expires_at:
        Lifecycle timestamps in simulated seconds; ``expires_at`` may be
        ``inf`` when TTL is disabled.
    prefetched:
        True if this element entered via predictive prefetching; such
        elements start at frequency 0 and earn retention on first validated
        hit (§4.3).
    arena_slot:
        Row handle into the cache's embedding arena when one is configured
        (``embedding`` is then a view of that row); None for standalone
        per-element storage. Owned by the cache: allocated on admission,
        released on removal, remapped on arena compaction.
    """

    element_id: int
    key: str
    value: str
    embedding: np.ndarray
    tool: str = "search"
    truth_key: str | None = None
    staticity: int = 6
    frequency: int = 0
    retrieval_latency: float = 0.0
    retrieval_cost: float = 0.0
    size_tokens: int = 1
    created_at: float = 0.0
    last_accessed_at: float = 0.0
    expires_at: float = float("inf")
    prefetched: bool = False
    arena_slot: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("element key must be non-empty")
        if not 1 <= self.staticity <= 10:
            raise ValueError(f"staticity must be in [1, 10], got {self.staticity}")
        if self.size_tokens < 0:
            raise ValueError("size_tokens must be >= 0")
        if self.retrieval_latency < 0 or self.retrieval_cost < 0:
            raise ValueError("retrieval latency/cost must be >= 0")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")

    def ttl_remaining(self, now: float) -> float:
        """Seconds until expiry (negative once expired)."""
        return self.expires_at - now

    def is_expired(self, now: float) -> bool:
        """True once the TTL has elapsed."""
        return self.expires_at <= now

    def record_hit(self, now: float) -> None:
        """Register one validated cache hit (frequency + recency update)."""
        self.frequency += 1
        self.last_accessed_at = now

    def __repr__(self) -> str:
        return (
            f"SemanticElement(id={self.element_id}, key={self.key!r}, "
            f"freq={self.frequency}, stat={self.staticity}, "
            f"cost=${self.retrieval_cost:.4f})"
        )
