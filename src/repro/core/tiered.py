"""Two-tier semantic caching: per-node L1 + shared regional L2.

The paper deploys one cache per serving cluster. At fleet scale the natural
next step (cf. its multi-cloud related work — Macaron, EVCache) is a
hierarchy: every agent node keeps a small private L1, and nodes in a region
share a larger L2 so one node's remote fetch warms the whole fleet.

A node is an ordinary :class:`~repro.core.engine.AsteriaEngine` over its L1
whose ``remote`` is a :class:`SharedTier`, so the node runs the one request
flow: an L1 miss fetches from the shared tier, which answers from L2 (one
intra-metro hop plus a two-stage lookup) or goes to the real remote and
admits into L2; the flow's admission is the promotion into L1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from repro.core.cache import AsteriaCache
from repro.core.config import AsteriaConfig
from repro.core.types import FetchResult, Query
from repro.network.remote import RemoteDataService


class SharedTier:
    """A node's view of the region-shared L2, in front of the real remote.

    Parameters
    ----------
    l2:
        The region-shared semantic cache. Several tiers may (and should)
        share one ``l2``.
    remote:
        The cross-region data service (shared across nodes).
    config:
        Thresholds, match mode and latency constants; applied to ``l2``'s
        Sine as the node engine applies them to L1's.
    l2_latency:
        One-way cost of consulting the shared tier (an intra-metro hop).
    """

    def __init__(
        self,
        l2: AsteriaCache,
        remote: RemoteDataService,
        config: AsteriaConfig,
        l2_latency: float,
    ) -> None:
        if l2_latency < 0:
            raise ValueError("l2_latency must be >= 0")
        self.l2 = l2
        self.remote = remote
        self.config = config
        l2.sine.tau_sim = config.tau_sim
        l2.sine.tau_lsm = config.tau_lsm
        l2.sine.max_candidates = config.max_candidates
        self.l2_latency = l2_latency
        #: Fetches this node's L2 answered.
        self.hits = 0

    def _lookup(self, query: Query, at: float):
        """L2's two-stage lookup as of ``at`` (after the hop) → ``(matched
        element or None, judger check latency)``."""
        found = self.l2.lookup(query, at, self.config.match)
        return found.match, self.config.cache_check_latency(found.judged)

    def _served(self, element, latency: float) -> FetchResult:
        """An L2 hit as a fetch: the element's value, its recorded fetch
        latency and cost (so the promoted L1 entry ranks as the original
        did) and its truth key (so a false hit is accounted and promoted as
        the fact it really is)."""
        self.hits += 1
        return FetchResult(
            result=element.value,
            latency=latency,
            service_latency=element.retrieval_latency,
            cost=element.retrieval_cost,
            size_tokens=element.size_tokens,
            truth_key=element.truth_key,
        )

    def _admit(self, query: Query, fetch: FetchResult, arrival: float) -> None:
        if self.config.admit_on_miss and not self.l2.contains_semantic(query):
            self.l2.insert(query, fetch, arrival)

    def fetch_at(self, query: Query, at: float) -> FetchResult:
        """Resolve ``query`` from L2, else from the remote, starting at
        simulated ``at``; the fetch's latency includes the hop and check."""
        element, check = self._lookup(query, at + self.l2_latency)
        spent = self.l2_latency + check
        if element is not None:
            return self._served(element, spent)
        fetch = self.remote.fetch_at(query, at + spent)
        self._admit(query, fetch, at + spent + fetch.latency)
        return replace(fetch, latency=spent + fetch.latency)

    def fetch(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`fetch_at`."""
        start = sim.now
        yield sim.timeout(self.l2_latency)
        element, check = self._lookup(query, sim.now)
        yield sim.timeout(check)
        if element is not None:
            return self._served(element, sim.now - start)
        fetch = yield from self.remote.fetch(sim, query)
        self._admit(query, fetch, sim.now)
        return replace(fetch, latency=sim.now - start)

    def __repr__(self) -> str:
        return f"SharedTier(l2={len(self.l2)}, hits={self.hits})"
