"""Two-tier semantic caching: per-node L1 + shared regional L2.

The paper deploys one cache per serving cluster. At fleet scale the natural
next step (cf. its multi-cloud related work — Macaron, EVCache) is a
hierarchy: every agent node keeps a small private L1, and nodes in a region
share a larger L2 so one node's remote fetch warms the whole fleet.

:class:`TieredEngine` implements the classic lookup path with semantic
matching at both levels:

1. L1 two-stage lookup (local, the usual ~0.05 s);
2. on L1 miss, L2 two-stage lookup (one intra-metro RTT away);
3. on L2 hit, the element is *promoted* into L1;
4. on full miss, the remote fetch populates both tiers.

Each node gets its own engine view (`node()`) over the shared L2, so
experiments can measure how fleet hit rates scale with node count.
"""

from __future__ import annotations

from typing import Generator

from repro.core.cache import AsteriaCache
from repro.core.config import AsteriaConfig
from repro.core.engine import EngineResponse, _is_correct
from repro.core.metrics import EngineMetrics
from repro.core.types import CacheLookup, FetchResult, Query
from repro.network.remote import RemoteDataService


class TieredEngine:
    """One node's engine over a private L1 and a shared L2.

    Parameters
    ----------
    l1 / l2:
        The node-private and region-shared semantic caches. Several
        TieredEngine instances may (and should) share one ``l2``.
    remote:
        The cross-region data service (shared across nodes).
    config:
        Latency constants and thresholds; applied to both tiers' Sine.
    l2_latency:
        One-way cost of consulting the shared tier (default 5 ms — an
        intra-metro hop).
    name:
        Node label for metrics.
    """

    def __init__(
        self,
        l1: AsteriaCache,
        l2: AsteriaCache,
        remote: RemoteDataService,
        config: AsteriaConfig | None = None,
        l2_latency: float = 0.005,
        name: str = "tiered",
    ) -> None:
        if l2_latency < 0:
            raise ValueError("l2_latency must be >= 0")
        self.l1 = l1
        self.l2 = l2
        self.remote = remote
        self.config = config if config is not None else AsteriaConfig()
        for cache in (self.l1, self.l2):
            cache.sine.tau_sim = self.config.tau_sim
            cache.sine.tau_lsm = self.config.tau_lsm
            cache.sine.max_candidates = self.config.max_candidates
        self.l2_latency = l2_latency
        self.name = name
        self.metrics = EngineMetrics()
        #: Hits served by each tier (L1 vs promoted-from-L2).
        self.l1_hits = 0
        self.l2_hits = 0

    # -- shared pieces ------------------------------------------------------
    def _tier_lookup(self, cache: AsteriaCache, query: Query, now: float):
        sine_result = cache.lookup(query, now, self.config.match)
        return sine_result.match, sine_result.judged

    def _promote(self, element, now: float) -> None:
        """Copy an L2 element into L1 (keeps the L2 copy)."""
        fetch = FetchResult(
            result=element.value,
            latency=0.0,
            service_latency=element.retrieval_latency,
            cost=element.retrieval_cost,
            size_tokens=element.size_tokens,
        )
        query = Query(
            text=element.key,
            tool=element.tool,
            fact_id=element.truth_key,
            staticity=element.staticity,
        )
        self.l1.insert(query, fetch, now)

    def _hit_response(self, element, check_latency: float, query: Query) -> EngineResponse:
        lookup = CacheLookup(
            status="hit",
            result=element.value,
            latency=check_latency,
            element_id=element.element_id,
            truth_match=_is_correct(element.truth_key, query.fact_id),
        )
        return EngineResponse(
            result=element.value, latency=check_latency, lookup=lookup
        )

    # -- analytic execution --------------------------------------------------------
    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query through L1 -> L2 -> remote."""
        l1_match, l1_judged = self._tier_lookup(self.l1, query, now)
        check = self.config.cache_check_latency(l1_judged)
        if l1_match is not None:
            self.l1_hits += 1
            response = self._hit_response(l1_match, check, query)
            self.metrics.record_response(response)
            return response
        l2_match, l2_judged = self._tier_lookup(
            self.l2, query, now + check + self.l2_latency
        )
        check += self.l2_latency + self.config.cache_check_latency(l2_judged)
        if l2_match is not None:
            self.l2_hits += 1
            self._promote(l2_match, now + check)
            response = self._hit_response(l2_match, check, query)
            self.metrics.record_response(response)
            return response
        fetch = self.remote.fetch_at(query, now + check)
        arrival = now + check + fetch.latency
        if self.config.admit_on_miss:
            self.l1.insert(query, fetch, arrival)
            if not self.l2.contains_semantic(query):
                self.l2.insert(query, fetch, arrival)
        lookup = CacheLookup(status="miss", result=None, latency=check)
        response = EngineResponse(
            result=fetch.result, latency=check + fetch.latency,
            lookup=lookup, fetch=fetch,
        )
        self.metrics.record_response(response)
        return response

    # -- discrete-event execution ------------------------------------------------------
    def process(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`handle`."""
        start = sim.now
        l1_match, l1_judged = self._tier_lookup(self.l1, query, sim.now)
        yield sim.timeout(self.config.cache_check_latency(l1_judged))
        if l1_match is not None:
            self.l1_hits += 1
            response = self._hit_response(l1_match, sim.now - start, query)
            self.metrics.record_response(response)
            return response
        yield sim.timeout(self.l2_latency)
        l2_match, l2_judged = self._tier_lookup(self.l2, query, sim.now)
        yield sim.timeout(self.config.cache_check_latency(l2_judged))
        if l2_match is not None:
            self.l2_hits += 1
            self._promote(l2_match, sim.now)
            response = self._hit_response(l2_match, sim.now - start, query)
            self.metrics.record_response(response)
            return response
        fetch = yield from self.remote.fetch(sim, query)
        if self.config.admit_on_miss:
            self.l1.insert(query, fetch, sim.now)
            if not self.l2.contains_semantic(query):
                self.l2.insert(query, fetch, sim.now)
        lookup = CacheLookup(status="miss", result=None, latency=sim.now - start)
        response = EngineResponse(
            result=fetch.result, latency=sim.now - start, lookup=lookup,
            fetch=fetch,
        )
        self.metrics.record_response(response)
        return response

    def __repr__(self) -> str:
        return (
            f"TieredEngine({self.name!r}, l1={len(self.l1)}, l2={len(self.l2)}, "
            f"l1_hits={self.l1_hits}, l2_hits={self.l2_hits})"
        )
