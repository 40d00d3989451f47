"""The knowledge world: facts and fact universes.

A :class:`Fact` is one atomic piece of external knowledge — the hidden
ground truth behind many surface-form queries. A :class:`FactUniverse`
collects the facts of one dataset, ranks them by popularity (the Zipf order),
and acts as the authoritative resolver for the remote data service.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from typing import Callable

from repro.core.types import Query

#: Base epoch length (seconds) for the most ephemeral facts; doubling per
#: staticity point makes staticity-10 facts effectively immutable.
VOLATILITY_BASE_PERIOD = 30.0


@functools.cache
def _padding(words: int) -> str:
    """Deterministic answer filler, ~1 token per word (one string per length,
    built once: it was most of a fetch's resolve time)."""
    return " ".join(f"ctx{i}" for i in range(words))


@dataclass(frozen=True)
class Fact:
    """One unit of external knowledge.

    Attributes
    ----------
    fact_id:
        Globally unique identity (the hidden ground-truth key).
    core:
        The content phrase all paraphrases share (e.g. ``"painted mona
        lisa"``); paraphrase templates wrap it in filler.
    answer:
        The authoritative answer text.
    topic:
        Topic label (drives trend workloads and correlation structure).
    staticity:
        True time-invariance on the paper's 1-10 scale.
    cost:
        Per-call fee of the service answering this fact; None = the remote
        service's default. Heterogeneous costs drive LCFU's advantage.
    latency_scale:
        Multiplier on the remote service's sampled latency (slow vs fast
        backends).
    answer_tokens:
        Approximate answer size; the resolver pads the answer to it.
    confusable_group:
        Facts sharing a group have nearly identical content words but
        different meanings (the "apple nutrition" vs "apple stock" regime).
    """

    fact_id: str
    core: str
    answer: str
    topic: str = "general"
    staticity: int = 6
    cost: float | None = None
    latency_scale: float = 1.0
    answer_tokens: int = 64
    confusable_group: str | None = None

    def __post_init__(self) -> None:
        if not self.fact_id or not self.core:
            raise ValueError("fact_id and core must be non-empty")
        if not 1 <= self.staticity <= 10:
            raise ValueError(f"staticity must be in [1, 10], got {self.staticity}")
        if self.latency_scale <= 0:
            raise ValueError("latency_scale must be > 0")
        if self.answer_tokens < 1:
            raise ValueError("answer_tokens must be >= 1")


class FactUniverse:
    """All facts of one dataset, in popularity order.

    Index 0 is the most popular fact; Zipf samplers draw ranks against this
    order. The universe also provides the ground-truth ``resolver`` used by
    :class:`~repro.network.remote.RemoteDataService`.
    """

    def __init__(self, name: str, facts: list[Fact]) -> None:
        if not facts:
            raise ValueError(f"universe {name!r} needs at least one fact")
        self.name = name
        self.facts = list(facts)
        self._by_id = {fact.fact_id: fact for fact in self.facts}
        if len(self._by_id) != len(self.facts):
            raise ValueError(f"duplicate fact ids in universe {name!r}")

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self):
        return iter(self.facts)

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self._by_id

    def get(self, fact_id: str) -> Fact:
        """The fact with ``fact_id``; raises KeyError if unknown."""
        fact = self._by_id.get(fact_id)
        if fact is None:
            raise KeyError(f"unknown fact {fact_id!r} in universe {self.name!r}")
        return fact

    def by_rank(self, rank: int) -> Fact:
        """The ``rank``-th most popular fact (0-based)."""
        return self.facts[rank]

    def topics(self) -> list[str]:
        """Distinct topics in first-appearance order."""
        seen: dict[str, None] = {}
        for fact in self.facts:
            seen.setdefault(fact.topic, None)
        return list(seen)

    def facts_for_topic(self, topic: str) -> list[Fact]:
        """All facts with the given topic, in popularity order."""
        return [fact for fact in self.facts if fact.topic == topic]

    def resolve(self, query: Query) -> str:
        """Authoritative answer for ``query`` (the remote service's resolver).

        Queries carrying an unknown or missing ``fact_id`` get deterministic
        fallback text keyed on the query itself, so the remote service never
        fails — it is the source of truth.
        """
        if query.fact_id is not None and query.fact_id in self._by_id:
            fact = self._by_id[query.fact_id]
            return self._render_answer(fact)
        return f"[{self.name}] no indexed knowledge; raw result for: {query.text}"

    @staticmethod
    def epoch_period(staticity: int) -> float:
        """Seconds between answer changes for a fact of this staticity.

        Doubles per staticity point: an ephemeral fact (2) changes every two
        minutes of simulated time, a stable one (10) roughly never within an
        experiment — the ground truth the 1-10 score claims to describe.
        """
        if not 1 <= staticity <= 10:
            raise ValueError(f"staticity must be in [1, 10], got {staticity}")
        return VOLATILITY_BASE_PERIOD * 2.0**staticity

    def resolve_at(self, query: Query, now: float) -> str:
        """Authoritative answer at simulated time ``now``.

        Volatile facts' answers change every :meth:`epoch_period` seconds
        (weather, prices, rankings); a cached copy from a previous epoch is
        *stale* — textually present but factually wrong. Stable facts answer
        identically to :meth:`resolve` for any realistic horizon.
        """
        if now < 0:
            raise ValueError(f"now must be >= 0, got {now}")
        if query.fact_id is None or query.fact_id not in self._by_id:
            return self.resolve(query)
        fact = self._by_id[query.fact_id]
        epoch = int(now / self.epoch_period(fact.staticity))
        base = self._render_answer(fact)
        if epoch == 0:
            return base
        return f"{base} [rev {epoch}]"

    def time_resolver(self) -> Callable[[Query, float], str]:
        """A ``(query, now) -> str`` resolver for time-aware remote services."""
        return self.resolve_at

    @staticmethod
    def _render_answer(fact: Fact) -> str:
        """Answer text padded to roughly ``answer_tokens`` tokens."""
        header = f"{fact.answer} (re: {fact.core})"
        header_tokens = max(1, len(header) // 4)
        missing = max(0, fact.answer_tokens - header_tokens)
        return f"{header} {_padding(missing)}".strip()

    def __repr__(self) -> str:
        return f"FactUniverse({self.name!r}, facts={len(self.facts)})"
