"""Asteria's core: semantic elements, Sine retrieval, cache, and engines.

This package is the paper's primary contribution. The pieces compose
bottom-up:

``SemanticElement`` (§4.1)
    The cache unit — query/result plus performance-aware metadata.
``Sine`` (§4.2)
    Two-stage retrieval: ANN coarse filter + LLM judger validation, beside
    an exact stage (canonical text → element).
``AsteriaCache`` (§4.3)
    Cache semantics atop Sine: semantic-aware hits, LCFU eviction, TTL.
``MarkovPrefetcher`` (§4.3, Algorithm 3)
    History-based predictive prefetching.
``ThresholdRecalibrator`` (§4.2, Algorithm 1)
    Periodic offline τ_lsm recalibration against a target precision.
``AsteriaEngine`` (§3.3, §6.1)
    The full system, and — configured by ``AsteriaConfig.match`` and
    ``cacheable_tools`` — the paper's two baselines, all on one request flow.

See :func:`repro.factory.build_asteria_engine` (and ``build_exact_engine`` /
``build_vanilla_engine``) for one-call construction.
"""

from repro.core.admission import (
    AdmissionPolicy,
    AlwaysAdmit,
    DoorkeeperAdmission,
)
from repro.core.cache import AsteriaCache, CacheStats
from repro.core.config import (
    AsteriaConfig,
    DEFAULT_TAU_LSM,
    DEFAULT_TAU_SIM,
)
from repro.core.element import SemanticElement
from repro.core.engine import (
    AsteriaEngine,
    EngineResponse,
    JudgeExecutor,
    KnowledgeEngine,
)
from repro.core.eviction import (
    EvictionPolicy,
    FIFOPolicy,
    LCFUPolicy,
    LFUPolicy,
    LRUPolicy,
    SizeAwareLFUPolicy,
    policy_by_name,
)
from repro.core.metrics import EngineMetrics, LatencyStats
from repro.core.persistence import CacheSnapshot
from repro.core.prefetch import MarkovModel, MarkovPrefetcher, QuerySignature
from repro.core.recalibration import (
    EvalRecord,
    ThresholdRecalibrator,
    find_threshold,
    precision_curve,
)
from repro.core.resilience import (
    CircuitBreaker,
    FetchFailed,
    NegativeCache,
    ResilienceManager,
    StaleEntry,
    StaleStore,
)
from repro.core.sharding import shard_index_for
from repro.core.sine import Sine, SineResult, canonical_text
from repro.core.types import CacheLookup, FetchResult, Query, estimate_tokens

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "AsteriaCache",
    "AsteriaConfig",
    "AsteriaEngine",
    "CacheLookup",
    "CacheSnapshot",
    "CacheStats",
    "CircuitBreaker",
    "DEFAULT_TAU_LSM",
    "DEFAULT_TAU_SIM",
    "DoorkeeperAdmission",
    "EngineMetrics",
    "EngineResponse",
    "EvalRecord",
    "EvictionPolicy",
    "FIFOPolicy",
    "FetchFailed",
    "FetchResult",
    "JudgeExecutor",
    "KnowledgeEngine",
    "LCFUPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "LatencyStats",
    "MarkovModel",
    "MarkovPrefetcher",
    "NegativeCache",
    "Query",
    "QuerySignature",
    "ResilienceManager",
    "SemanticElement",
    "Sine",
    "SineResult",
    "StaleEntry",
    "StaleStore",
    "SizeAwareLFUPolicy",
    "ThresholdRecalibrator",
    "canonical_text",
    "estimate_tokens",
    "shard_index_for",
    "find_threshold",
    "policy_by_name",
    "precision_curve",
]
