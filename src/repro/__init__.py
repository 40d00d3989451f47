"""Asteria: semantic-aware cross-region knowledge caching for LLM agents.

A full reproduction of the NSDI 2026 paper (also circulated as *Cortex:
Achieving Low-Latency, Cost-Efficient Remote Data Access For LLM via
Semantic-Aware Knowledge Caching*): the Semantic Element / Sine two-stage
retrieval abstractions, LCFU eviction, Markov prefetching, threshold
recalibration, and GPU co-location — plus every substrate the evaluation
needs (embeddings, a vector index, a semantic judger, a WAN/rate-limit/cost
model, a GPU scheduler, scripted agents, and workload generators), all
implemented natively and runnable offline on a deterministic discrete-event
simulator.

Quickstart
----------
>>> from repro import build_remote, build_asteria_engine, Query
>>> remote = build_remote()
>>> engine = build_asteria_engine(remote, seed=7)
>>> miss = engine.handle(Query("who painted the mona lisa", fact_id="F1"))
>>> hit = engine.handle(Query("tell me about who painted mona lisa", fact_id="F1"))
>>> hit.served_from_cache
True

Subpackages
-----------
``repro.core``
    The paper's contribution: SE, Sine, cache, policies, engines.
``repro.embedding`` / ``repro.ann`` / ``repro.judger``
    The semantic substrates (hashing embedder, exact flat index,
    noisy-oracle judger).
``repro.network`` / ``repro.serving``
    Cross-region WAN + rate limits + fees; GPU partitions + priority
    co-location.
``repro.agent`` / ``repro.workloads``
    Think-act-observe agents and the paper's workload shapes.
``repro.experiments``
    One runner per table/figure of the evaluation.
"""

from repro.core import (
    AsteriaCache,
    AsteriaConfig,
    AsteriaEngine,
    EngineMetrics,
    EngineResponse,
    Query,
    SemanticElement,
    Sine,
)
from repro.factory import (
    build_asteria_engine,
    build_exact_engine,
    build_remote,
    build_semantic_cache,
    build_tiered_engine,
    build_vanilla_engine,
)

__version__ = "1.0.0"

__all__ = [
    "AsteriaCache",
    "AsteriaConfig",
    "AsteriaEngine",
    "EngineMetrics",
    "EngineResponse",
    "Query",
    "SemanticElement",
    "Sine",
    "__version__",
    "build_asteria_engine",
    "build_exact_engine",
    "build_remote",
    "build_semantic_cache",
    "build_tiered_engine",
    "build_vanilla_engine",
]
