"""Configuration for the Asteria engine.

One dataclass gathers every tunable the paper names, with the paper's
defaults where they are meaningful in our substrate and documented remappings
where they are not:

* ``tau_sim`` — the paper uses 0.9 in Qwen3 embedding space. Our hashing
  embedder produces a different similarity geometry (paraphrases ≥ 0.95,
  confusables 0.55-0.85, unrelated ≈ 0), so the *equivalent operating point*
  is 0.7: permissive enough to pass every paraphrase and the confusables the
  judger must catch, strict enough to exclude unrelated queries.
* ``tau_lsm`` — 0.9, as in the paper (§4.2).
* Cache-check latencies follow Figure 11: ~0.02 s for embedding+ANN and
  ~0.03 s for judger validation.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default similarity threshold; see module docstring for the 0.9 -> 0.7 map.
DEFAULT_TAU_SIM = 0.7
#: Paper default LSM confidence threshold.
DEFAULT_TAU_LSM = 0.9
#: The values of :attr:`AsteriaConfig.match`.
MATCH_MODES = ("semantic", "ann_only", "exact")


@dataclass
class AsteriaConfig:
    """Tunables for :class:`repro.core.engine.AsteriaEngine`.

    Parameters
    ----------
    tau_sim:
        ANN candidate-selection cosine threshold (coarse filter).
    tau_lsm:
        Judger confidence threshold (fine validation).
    max_candidates:
        ANN candidates fetched per lookup (the judger sees at most these).
    capacity_items:
        Cache capacity in semantic elements; None = unbounded.
    default_ttl:
        Time-to-live for new elements in seconds; None disables aging.
    ann_latency:
        Simulated seconds for embedding + ANN search per lookup (0.02 s,
        Figure 11).
    judge_latency_base:
        Fixed judger invocation overhead per lookup that judges >= 1
        candidate (0.02 s).
    judge_latency_per_candidate:
        Additional seconds per judged candidate (0.01 s; one candidate gives
        the paper's 0.03 s total).
    prefetch_enabled / prefetch_confidence / prefetch_max_per_event:
        Markov prefetching controls (Algorithm 3).
    recalibration_enabled / recalibration_interval / recalibration_samples /
    target_precision:
        Algorithm 1 controls: every ``recalibration_interval`` simulated
        seconds, sample ``recalibration_samples`` recent validated hits,
        fetch ground truth, and move ``tau_lsm`` to meet
        ``target_precision``.
    match:
        What a lookup matches on: ``"semantic"`` (the two Sine stages),
        ``"ann_only"`` (trust the ANN top-1 above ``tau_sim`` without
        judging — the paper's Agent_ANN / "Asteria w/o judger") or
        ``"exact"`` (canonical query text only — Agent_exact).
    admit_on_miss:
        Store fetched results as new SEs (normally True; False turns the
        engine into a read-only prober for debugging).
    staticity_ttl_scaling:
        Scale element TTLs by staticity/10 (extension of the paper's aging
        mechanism; see AsteriaCache).
    finetune_enabled:
        Let recalibration rounds also fine-tune the judger on the labelled
        validation set (§5's suggestion); requires recalibration_enabled.
    cacheable_tools:
        Tools whose results may be cached; queries for other tools *bypass*
        the cache entirely (e.g. side-effecting or user-specific tools).
        None (default) caches every tool.
    coalesce_misses:
        Suppress the thundering herd (process mode): concurrent misses for
        semantically identical queries share one in-flight remote fetch
        instead of each paying for their own. Off by default (the paper
        does not describe coalescing); the extension bench quantifies it.
    """

    tau_sim: float = DEFAULT_TAU_SIM
    tau_lsm: float = DEFAULT_TAU_LSM
    max_candidates: int = 4
    capacity_items: int | None = None
    default_ttl: float | None = 3600.0
    ann_latency: float = 0.02
    judge_latency_base: float = 0.02
    judge_latency_per_candidate: float = 0.01
    prefetch_enabled: bool = False
    prefetch_confidence: float = 0.4
    prefetch_max_per_event: int = 2
    recalibration_enabled: bool = False
    recalibration_interval: float = 60.0
    recalibration_samples: int = 5
    target_precision: float = 0.99
    match: str = "semantic"
    admit_on_miss: bool = True
    staticity_ttl_scaling: bool = False
    finetune_enabled: bool = False
    cacheable_tools: "tuple[str, ...] | None" = None
    coalesce_misses: bool = False

    def __post_init__(self) -> None:
        if self.match not in MATCH_MODES:
            raise ValueError(f"match must be one of {MATCH_MODES}, got {self.match!r}")
        if not 0.0 <= self.tau_sim <= 1.0:
            raise ValueError(f"tau_sim must be in [0, 1], got {self.tau_sim}")
        if not 0.0 <= self.tau_lsm <= 1.0:
            raise ValueError(f"tau_lsm must be in [0, 1], got {self.tau_lsm}")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.capacity_items is not None and self.capacity_items < 1:
            raise ValueError("capacity_items must be >= 1 or None")
        if self.default_ttl is not None and self.default_ttl <= 0:
            raise ValueError("default_ttl must be > 0 or None")
        for name in ("ann_latency", "judge_latency_base", "judge_latency_per_candidate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.prefetch_confidence <= 1.0:
            raise ValueError("prefetch_confidence must be in [0, 1]")
        if self.prefetch_max_per_event < 1:
            raise ValueError("prefetch_max_per_event must be >= 1")
        if self.recalibration_interval <= 0:
            raise ValueError("recalibration_interval must be > 0")
        if self.recalibration_samples < 1:
            raise ValueError("recalibration_samples must be >= 1")
        if not 0.0 < self.target_precision <= 1.0:
            raise ValueError("target_precision must be in (0, 1]")

    def cache_check_latency(self, judged: int) -> float:
        """L_CacheCheck = L_ANN + L_LSM for a lookup that judged ``judged``."""
        latency = self.ann_latency
        if judged > 0 and self.match == "semantic":
            latency += (
                self.judge_latency_base
                + self.judge_latency_per_candidate * judged
            )
        return latency

