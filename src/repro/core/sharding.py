"""Sharded semantic cache for in-process concurrent serving (§4.4).

:class:`ShardedAsteriaCache` partitions the cache into N independent
:class:`~repro.core.cache.AsteriaCache` shards — each with its own Sine
pipeline (embedder, ANN index, judger) — and routes every query to one
shard by a *stable* hash of its content fingerprint
(:func:`~repro.core.cache.content_key`). Because the embedder, judger, and staticity scorer are all deterministic
per-text (content-seeded, no sequential RNG stream), N shards built with one
seed behave, each on its own query subset, exactly like an unsharded cache
would; with one shard the whole object replays an unsharded trace decision
for decision.

Why this shape:

* **One routing with the proc tier** — the multi-process tier gives each
  worker one shard under the same hash, so ``shards=N`` here decides as
  ``workers=N`` there.
* **No locks** — the event loop serves from one thread, and the
  ``--series-out`` snapshot recorder samples on that same thread between
  requests, so nothing reads a shard while another thread mutates it.
* **Placement keeps the hit rate** — a paraphrase hits only on the shard
  its original was admitted to. Content-key routing co-shards every
  phrasing that differs in stopword filler, order, case or spacing, so at
  equal total capacity N shards hit like one cache; text routing lost 9 /
  17 points at 2 / 4 shards (DESIGN §13). One fact's load is one shard's.

Capacity, TTL purge, eviction, and stats stay per-shard; :attr:`stats`
aggregates the per-shard counters into one
:class:`~repro.core.cache.CacheStats` view whose fields are exact sums.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable, Sequence

from repro.core.cache import AsteriaCache, CacheStats, content_key
from repro.core.element import SemanticElement
from repro.core.sine import SineResult
from repro.core.types import FetchResult, Query

#: The routing's name, recorded in every persisted shard store.
ROUTING = "content-key-crc32"


def shard_index_for(text: str, n_shards: int) -> int:
    """Stable shard id for ``text``: crc32 of its content key, mod N.

    Phrasings of one fact share the key, so a paraphrase lands on the shard
    holding its original. crc32 (unlike ``hash``) is stable across
    processes and Python versions, so a persisted or distributed deployment
    routes identically everywhere.
    """
    return zlib.crc32(content_key(text).encode("utf-8")) % n_shards


class _JudgerBroadcast:
    """Engine-facing view over the per-shard judgers: reads come from shard
    0, and a write — a fine-tuning round, a drifted parameter — reaches
    every shard's judger, so they stay in lockstep."""

    def __init__(self, shards: Sequence[AsteriaCache]) -> None:
        object.__setattr__(self, "_shards", shards)

    def __getattr__(self, name: str):
        return getattr(self._shards[0].sine.judger, name)

    def __setattr__(self, name: str, value) -> None:
        for shard in self._shards:
            setattr(shard.sine.judger, name, value)


class _SineBroadcast:
    """Engine-facing view over the per-shard Sine pipelines.

    :class:`~repro.core.engine.AsteriaEngine` configures its cache through
    ``cache.sine`` (thresholds, candidate count) and the recalibrator reads
    and writes ``tau_lsm`` and the judger at runtime. Reads come from shard
    0 (all shards are kept in lockstep); writes broadcast to every shard.
    """

    def __init__(self, shards: Sequence[AsteriaCache]) -> None:
        self._shards = shards
        self.judger = _JudgerBroadcast(shards)

    @property
    def tau_sim(self) -> float:
        return self._shards[0].sine.tau_sim

    @tau_sim.setter
    def tau_sim(self, value: float) -> None:
        for shard in self._shards:
            shard.sine.tau_sim = value

    @property
    def tau_lsm(self) -> float:
        return self._shards[0].sine.tau_lsm

    @tau_lsm.setter
    def tau_lsm(self, value: float) -> None:
        for shard in self._shards:
            shard.sine.tau_lsm = value

    @property
    def max_candidates(self) -> int:
        return self._shards[0].sine.max_candidates

    @max_candidates.setter
    def max_candidates(self, value: int) -> None:
        for shard in self._shards:
            shard.sine.max_candidates = value

    @property
    def embedder(self):
        """Shard 0's embedder (all shards share one seed, so any shard's
        embedder computes identical vectors)."""
        return self._shards[0].sine.embedder

    def __len__(self) -> int:
        return sum(len(shard.sine) for shard in self._shards)


class ShardedAsteriaCache:
    """N :class:`AsteriaCache` shards behind one cache interface.

    Parameters
    ----------
    shards:
        Pre-built shard caches (use the same seed for each so all shards
        share embedding/judging behaviour — see
        :func:`repro.factory.build_sharded_cache`).

    The public surface mirrors :class:`AsteriaCache` closely enough that
    :class:`~repro.core.engine.AsteriaEngine` runs over either transparently:
    ``lookup`` / ``insert`` / ``contains_semantic`` / ``remove_expired`` /
    ``invalidate`` / ``stats`` / ``usage``. A per-query method touches only
    the query's shard; whole-cache sweeps visit the shards in order.
    """

    def __init__(self, shards: Sequence[AsteriaCache]) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("need at least one shard")
        self._shards = shards
        self.sine = _SineBroadcast(self._shards)
        #: Optional stage tracer, broadcast to every shard.
        self.tracer = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer on every shard."""
        self.tracer = tracer
        for shard in self._shards:
            shard.set_tracer(tracer)

    # -- introspection ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[AsteriaCache]:
        """The shard caches (index-aligned with :meth:`shard_index`)."""
        return list(self._shards)

    def shard_index(self, text: str) -> int:
        """The shard id serving queries with this text."""
        return shard_index_for(text, len(self._shards))

    def __len__(self) -> int:
        return sum(self.usage_per_shard())

    def __bool__(self) -> bool:
        """Always truthy; see :meth:`AsteriaCache.__bool__`."""
        return True

    def usage(self) -> int:
        """Current occupancy in elements across all shards."""
        return len(self)

    def usage_per_shard(self) -> list[int]:
        """Occupancy of each shard, index-aligned with :attr:`shards`."""
        return [len(shard) for shard in self._shards]

    @property
    def capacity_items(self) -> int | None:
        """Total capacity across shards (None when any shard is unbounded)."""
        total = 0
        for shard in self._shards:
            if shard.capacity_items is None:
                return None
            total += shard.capacity_items
        return total

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters: every field is the exact per-shard sum."""
        totals = CacheStats()
        for stats in self.stats_per_shard():
            for field in dataclasses.fields(CacheStats):
                setattr(
                    totals,
                    field.name,
                    getattr(totals, field.name) + getattr(stats, field.name),
                )
        return totals

    def stats_per_shard(self) -> list[CacheStats]:
        """A copy of each shard's counters."""
        return [dataclasses.replace(shard.stats) for shard in self._shards]

    # -- lookup -----------------------------------------------------------------
    def lookup(self, query: Query, now: float, ann_only: bool = False) -> SineResult:
        """Two-stage lookup on the query's shard."""
        shard = self._shards[self.shard_index(query.text)]
        return shard.lookup(query, now, ann_only=ann_only)

    def contains_semantic(self, query: Query) -> bool:
        """Stage-1-only membership probe on the query's shard."""
        return self._shards[self.shard_index(query.text)].contains_semantic(query)

    # -- admission / lifecycle ---------------------------------------------------
    def insert(
        self,
        query: Query,
        fetch: FetchResult,
        now: float,
        prefetched: bool = False,
        ttl: float | None = None,
    ) -> SemanticElement:
        """Admit a fetched result into the query's shard."""
        shard = self._shards[self.shard_index(query.text)]
        return shard.insert(query, fetch, now, prefetched=prefetched, ttl=ttl)

    def remove_expired(self, now: float) -> int:
        """TTL purge on every shard; returns the total removed."""
        return sum(shard.remove_expired(now) for shard in self._shards)

    def invalidate(self, predicate: Callable[[SemanticElement], bool]) -> int:
        """Remove matching elements from every shard; returns the count."""
        return sum(shard.invalidate(predicate) for shard in self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedAsteriaCache(shards={self.n_shards}, items={len(self)}, "
            f"capacity={self.capacity_items})"
        )
