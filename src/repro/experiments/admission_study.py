"""Admission ablation: what keeps one-hit wonders out of the cache.

§3.2 asks "when does a candidate become a cache hit ... how should admission
and eviction operate"; §4.3 wants the cache unpolluted. This study compares
admit-everything (the paper's default) against a TinyLFU-style doorkeeper
(admit on the second semantically-equivalent miss) on a tail-heavy workload
with a tight cache: the doorkeeper sacrifices the second request of every
genuinely popular fact but stops the Zipf tail from churning the cache.
"""

from __future__ import annotations

from repro.core import AsteriaConfig, DoorkeeperAdmission
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_queries": 600}


def run(
    dataset_name: str = "hotpotqa",
    cache_ratio: float = 0.06,
    n_queries: int = 2000,
    zipf_s: float = 0.7,
    seed: int = 0,
) -> ExperimentResult:
    """One row per admission policy on the same tail-heavy stream."""
    result = ExperimentResult(
        name="Admission study: always-admit vs doorkeeper",
        notes=(
            "Tight cache + long tail: admit-everything churns, the "
            "doorkeeper filters one-hit wonders at the cost of one extra "
            "miss per recurring fact."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed, zipf_s=zipf_s)
    capacity = dataset.capacity_for(cache_ratio)
    for label in ("always", "doorkeeper"):
        remote = build_remote(dataset.universe, seed=seed)
        engine = build_asteria_engine(
            remote, AsteriaConfig(capacity_items=capacity), seed=seed
        )
        if label == "doorkeeper":
            engine.admission = DoorkeeperAdmission(window=600.0)
        workload = SkewedWorkload(dataset, seed=seed + 1)
        now = 0.0
        for query in workload.queries(n_queries):
            response = engine.handle(query, now)
            now += response.latency + 0.2
        metrics = engine.metrics
        result.add_row(
            admission=label,
            hit_rate=round(metrics.hit_rate, 4),
            evictions=metrics.evictions,
            inserts=engine.cache.stats.inserts,
            api_calls=remote.calls,
            api_cost_usd=round(remote.cost_meter.api_cost, 4),
        )
    return result


@claims
def check(result: ExperimentResult):
    always = result.row(admission="always")
    door = result.row(admission="doorkeeper")
    yield "the doorkeeper evicts < 0.6x", door["evictions"] < 0.6 * always["evictions"]
    yield "the doorkeeper hits as often", door["hit_rate"] >= always["hit_rate"]
    yield "the doorkeeper calls no more", door["api_calls"] <= always["api_calls"]
