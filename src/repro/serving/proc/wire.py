"""Plain-structure converters for everything that crosses a process boundary.

Each ``*_to_wire`` function flattens a core type to dicts/lists/scalars —
the frame schema is plain data, whatever serializes it — and each
``*_from_wire`` rebuilds the *real* type on the other side. Readers index
into sequences and never type-check them (a list and a tuple read alike).

Design note — embeddings stay in the worker. A cached element's embedding
is a view into the worker's arena; the router never scores vectors, so
``element_to_wire`` drops it and ``element_from_wire`` substitutes a
zero-length placeholder. Everything the router's accounting path
(:meth:`AsteriaEngine._lookup_record`) reads — ``element_id``, ``key``,
``value``, ``truth_key``, ``prefetched``, post-hit ``frequency`` — crosses
intact, so router-side metrics match a single-process run exactly.
"""

from __future__ import annotations

import numpy as np

from repro.ann.base import SearchHit
from repro.core.cache import CacheStats
from repro.core.element import SemanticElement
from repro.core.sine import SineResult
from repro.core.types import FetchResult, Query
from repro.judger.base import JudgeVerdict

#: Placeholder for embeddings that stayed behind in the worker's arena.
_NO_EMBEDDING = np.zeros(0, dtype=np.float32)


# -- Query --------------------------------------------------------------------
def query_to_wire(query: Query) -> dict:
    return {
        "text": query.text,
        "tool": query.tool,
        "fact_id": query.fact_id,
        "staticity": query.staticity,
        "cost": query.cost,
        "metadata": dict(query.metadata),
    }


def query_from_wire(data: dict) -> Query:
    return Query(
        text=data["text"],
        tool=data["tool"],
        fact_id=data["fact_id"],
        staticity=data["staticity"],
        cost=data["cost"],
        metadata=data["metadata"] or {},
    )


# -- FetchResult --------------------------------------------------------------
def fetch_to_wire(fetch: FetchResult) -> dict:
    return {
        "result": fetch.result,
        "latency": fetch.latency,
        "service_latency": fetch.service_latency,
        "cost": fetch.cost,
        "retries": fetch.retries,
        "rate_limited": fetch.rate_limited,
        "size_tokens": fetch.size_tokens,
        "hedged": fetch.hedged,
    }


def fetch_from_wire(data: dict) -> FetchResult:
    return FetchResult(
        result=data["result"],
        latency=data["latency"],
        service_latency=data["service_latency"],
        cost=data["cost"],
        retries=data["retries"],
        rate_limited=data["rate_limited"],
        size_tokens=data["size_tokens"],
        hedged=data["hedged"],
    )


# -- SemanticElement (embedding-less) -----------------------------------------
def element_to_wire(element: SemanticElement) -> dict:
    return {
        "element_id": element.element_id,
        "key": element.key,
        "value": element.value,
        "tool": element.tool,
        "truth_key": element.truth_key,
        "staticity": element.staticity,
        "frequency": element.frequency,
        "retrieval_latency": element.retrieval_latency,
        "retrieval_cost": element.retrieval_cost,
        "size_tokens": element.size_tokens,
        "created_at": element.created_at,
        "last_accessed_at": element.last_accessed_at,
        "expires_at": element.expires_at,
        "prefetched": element.prefetched,
        "metadata": dict(element.metadata),
    }


def element_from_wire(data: dict) -> SemanticElement:
    return SemanticElement(
        element_id=data["element_id"],
        key=data["key"],
        value=data["value"],
        embedding=_NO_EMBEDDING,
        tool=data["tool"],
        truth_key=data["truth_key"],
        staticity=data["staticity"],
        frequency=data["frequency"],
        retrieval_latency=data["retrieval_latency"],
        retrieval_cost=data["retrieval_cost"],
        size_tokens=data["size_tokens"],
        created_at=data["created_at"],
        last_accessed_at=data["last_accessed_at"],
        expires_at=data["expires_at"],
        prefetched=data["prefetched"],
        arena_slot=None,
        metadata=data["metadata"] or {},
    )


# -- SineResult ---------------------------------------------------------------
def sine_to_wire(result: SineResult) -> dict:
    return {
        "match": element_to_wire(result.match) if result.match is not None else None,
        "candidates": [[hit.score, hit.key] for hit in result.candidates],
        "verdicts": [[v.score, v.truth, v.detail] for v in result.verdicts],
        "ann_considered": result.ann_considered,
    }


def sine_from_wire(data: dict) -> SineResult:
    match = data["match"]
    return SineResult(
        match=element_from_wire(match) if match is not None else None,
        candidates=[SearchHit(score=row[0], key=row[1]) for row in data["candidates"]],
        verdicts=[
            JudgeVerdict(score=row[0], truth=row[1], detail=row[2])
            for row in data["verdicts"]
        ],
        ann_considered=data["ann_considered"],
    )


# -- shard stats piggyback ----------------------------------------------------
#: Every worker reply carries its shard's stats so the router's cache view is
#: exact at metric-recording time: (inserts, evictions, expirations,
#: rejected_duplicates, prefetch_inserts, usage).
def shard_stats_tuple(stats: CacheStats, usage: int) -> list:
    return [
        stats.inserts,
        stats.evictions,
        stats.expirations,
        stats.rejected_duplicates,
        stats.prefetch_inserts,
        usage,
    ]


def stats_from_tuples(tuples) -> CacheStats:
    """Exact-sum CacheStats across per-shard piggyback tuples."""
    total = CacheStats()
    for row in tuples:
        total.inserts += row[0]
        total.evictions += row[1]
        total.expirations += row[2]
        total.rejected_duplicates += row[3]
        total.prefetch_inserts += row[4]
    return total


def usage_from_tuples(tuples) -> int:
    return sum(row[5] for row in tuples)
