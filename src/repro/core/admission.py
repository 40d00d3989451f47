"""Admission policies: deciding which fetched results deserve cache space.

§3.2 lists "how should admission ... operate" among the questions a real
cache must answer, and §4.3 wants the cache protected from pollution. The
engine's default is admit-everything (what the paper evaluates); this module
adds the classic alternative as a pluggable policy:

``AlwaysAdmit``
    The paper's behaviour.
``DoorkeeperAdmission``
    TinyLFU-style: a fetched result is only cached on its *second* miss
    within a time window. One-hit wonders (the Zipf tail) never displace
    useful entries; genuinely recurring knowledge is admitted one miss
    later. The doorkeeper tracks *semantic* identity — the embedding's
    nearest cached neighbour can't be used (it missed!), so recurrence is
    detected by content fingerprint of the canonical text.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.cache import content_key
from repro.core.types import FetchResult, Query


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides whether a missed-and-fetched result enters the cache."""

    name: str

    def admit(self, query: Query, fetch: FetchResult, now: float) -> bool:
        """True to cache this result."""
        ...


class AlwaysAdmit:
    """Admit every fetched result (the paper's default)."""

    name = "always"

    def admit(self, query: Query, fetch: FetchResult, now: float) -> bool:
        """Always True."""
        return True


class DoorkeeperAdmission:
    """Admit on the second semantically-equivalent miss within a window.

    Parameters
    ----------
    window:
        Seconds a first-miss record stays valid (default 300).
    max_tracked:
        Bound on remembered first-misses; oldest dropped beyond it.
    """

    name = "doorkeeper"

    def __init__(self, window: float = 300.0, max_tracked: int = 4096) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        if max_tracked < 1:
            raise ValueError("max_tracked must be >= 1")
        self.window = window
        self.max_tracked = max_tracked
        self._first_seen: dict[str, float] = {}
        self.admitted = 0
        self.refused = 0

    def admit(self, query: Query, fetch: FetchResult, now: float) -> bool:
        """True iff an equivalent miss happened within the window."""
        # Stopword-only queries share the empty fingerprint.
        fingerprint = content_key(query.text, empty="")
        first = self._first_seen.get(fingerprint)
        if first is not None and now - first <= self.window:
            del self._first_seen[fingerprint]
            self.admitted += 1
            return True
        self._first_seen[fingerprint] = now
        if len(self._first_seen) > self.max_tracked:
            oldest = min(self._first_seen, key=self._first_seen.get)
            del self._first_seen[oldest]
        self.refused += 1
        return False

    def __repr__(self) -> str:
        return (
            f"DoorkeeperAdmission(window={self.window}, "
            f"admitted={self.admitted}, refused={self.refused})"
        )
