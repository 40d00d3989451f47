"""History-based predictive prefetching (§4.3, Algorithm 3).

A first-order Markov model learns query-to-query transitions from the stream
of resolved lookups. After each query, successors whose transition
probability exceeds a confidence threshold — and which the cache does not
already cover — are fetched asynchronously and inserted as zero-frequency
semantic elements. Unused speculative entries score minimally under LCFU and
are evicted first, giving the paper's "low-risk, self-correcting" behaviour.

States are :class:`QuerySignature` values — the canonical query text plus
the annotations needed to re-issue it. A production system would persist the
same information in its access log.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.types import Query


@dataclass(frozen=True)
class QuerySignature:
    """The replayable identity of a past query (a Markov state)."""

    text: str
    tool: str = "search"
    fact_id: str | None = None
    staticity: int | None = None
    cost: float | None = None

    @classmethod
    def of(cls, query: Query) -> "QuerySignature":
        """The signature of a live query."""
        return cls(
            text=query.text,
            tool=query.tool,
            fact_id=query.fact_id,
            staticity=query.staticity,
            cost=query.cost,
        )

    def to_query(self) -> Query:
        """Reconstruct an issuable :class:`Query`."""
        return Query(
            text=self.text,
            tool=self.tool,
            fact_id=self.fact_id,
            staticity=self.staticity,
            cost=self.cost,
        )


class MarkovModel:
    """First-order transition counts over query signatures.

    ``predict`` returns successors ordered by probability. ``min_support``
    transitions must be observed from a state before predictions are made
    for it, preventing one-off coincidences from triggering fetches.
    """

    def __init__(self, min_support: int = 2) -> None:
        if min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {min_support}")
        self.min_support = min_support
        self._transitions: dict[QuerySignature, Counter] = defaultdict(Counter)
        self._outgoing_totals: Counter = Counter()

    def record(self, previous: QuerySignature, current: QuerySignature) -> None:
        """Observe the transition ``previous -> current``."""
        if previous == current:
            return  # Self-loops carry no prefetch signal.
        self._transitions[previous][current] += 1
        self._outgoing_totals[previous] += 1

    def predict(self, state: QuerySignature) -> list[tuple[QuerySignature, float]]:
        """Successors of ``state`` with probabilities, most likely first."""
        total = self._outgoing_totals.get(state, 0)
        if total < self.min_support:
            return []
        successors = self._transitions.get(state)
        if not successors:
            return []
        ranked = sorted(
            successors.items(), key=lambda item: (-item[1], item[0].text)
        )
        return [(signature, count / total) for signature, count in ranked]

    @property
    def states(self) -> int:
        """Number of states with at least one outgoing transition."""
        return len(self._transitions)

    def __repr__(self) -> str:
        return f"MarkovModel(states={self.states}, min_support={self.min_support})"


class MarkovPrefetcher:
    """Algorithm 3: observe the resolved-query stream, emit prefetch targets.

    Parameters
    ----------
    confidence:
        Minimum transition probability to trigger a prefetch (θ).
    max_per_event:
        At most this many prefetches per observed query.
    model:
        Optionally share a pre-trained :class:`MarkovModel`.
    """

    def __init__(
        self,
        confidence: float = 0.4,
        max_per_event: int = 2,
        model: MarkovModel | None = None,
    ) -> None:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        if max_per_event < 1:
            raise ValueError("max_per_event must be >= 1")
        self.confidence = confidence
        self.max_per_event = max_per_event
        self.model = model if model is not None else MarkovModel()
        #: Last observed state per session (None = the default session).
        self._previous: dict[object, QuerySignature] = {}
        self.observed = 0

    def observe(
        self, query: Query, canonical_text: str | None = None
    ) -> list[QuerySignature]:
        """Record ``query`` in the history and return prefetch candidates.

        ``canonical_text`` collapses paraphrases onto one state: the engine
        passes the matched semantic element's key on a hit, so "who painted
        the mona lisa" and "mona lisa painter" share a Markov state (raw
        surface forms almost never repeat, which would starve the model).

        Transitions are recorded *per session* — the query's ``session``
        metadata, typically the agent task id — because under concurrency
        the globally interleaved stream has no adjacency structure; the
        learned model itself is shared across sessions.

        Candidates are successors with probability >= ``confidence``; the
        caller is responsible for the not-already-cached guard and the
        asynchronous fetch (the engine does both).
        """
        signature = QuerySignature(
            text=canonical_text if canonical_text is not None else query.text,
            tool=query.tool,
            fact_id=query.fact_id,
            staticity=query.staticity,
            cost=query.cost,
        )
        session = query.metadata.get("session")
        previous = self._previous.get(session)
        if previous is not None:
            self.model.record(previous, signature)
        self._previous[session] = signature
        self.observed += 1
        predictions = self.model.predict(signature)
        return [
            successor
            for successor, probability in predictions[: self.max_per_event]
            if probability >= self.confidence
        ]

    def __repr__(self) -> str:
        return (
            f"MarkovPrefetcher(confidence={self.confidence}, "
            f"observed={self.observed}, states={self.model.states})"
        )
