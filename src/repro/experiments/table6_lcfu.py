"""Table 6 — LCFU vs LRU vs LFU on the HotpotQA workload.

The paper's trade: LFU wins the raw hit rate (0.89 vs LCFU's 0.86) but LCFU
wins throughput (+9 %) because it preferentially retains items that are
*expensive* to re-fetch. The workload's premium slice (higher fee, 4× remote
latency) is what LCFU's cost/latency terms see and recency/frequency
policies ignore; popularity is flattened slightly (Zipf 0.7) so the
contested eviction slots have near-equal frequencies and the policies'
choices — not raw popularity — decide the outcome.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

DEFAULT_POLICIES = ("lru", "lfu", "lcfu")
QUICK = {"n_tasks": 400, "trials": 2}


def run(
    dataset_name: str = "hotpotqa",
    cache_ratio: float = 0.06,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    n_tasks: int = 800,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = None,
    seed: int = 0,
    trials: int = 5,
) -> ExperimentResult:
    """One row per eviction policy, averaged over ``trials`` workload seeds.

    Policy differences here are a few percent — the paper's own gap is 9 % —
    so single-trace noise would dominate; every policy sees the same
    ``trials`` traces and the means are reported.
    """
    result = ExperimentResult(
        name="Table 6: LCFU vs LRU/LFU eviction",
        notes=(
            "Paper: hit rates 0.88/0.89/0.86 (LRU/LFU/LCFU) but LCFU wins "
            "throughput by up to 9% by retaining expensive items. The "
            "ratio is set below the working set so eviction actually runs."
        ),
    )
    # Strengthen the premium slice so retrieval-cost heterogeneity — the
    # signal LCFU keys on and LRU/LFU ignore — is first-order, as it is for
    # the paper's mixed fast/slow data services.
    dataset = build_dataset(
        dataset_name,
        seed=seed,
        premium_fraction=0.3,
        premium_latency_scale=4.0,
        premium_cost=0.025,
        zipf_s=0.7,
    )
    capacity = dataset.capacity_for(cache_ratio)
    for policy in policies:
        hits, throughputs, latencies, costs, evictions = [], [], [], [], []
        for trial in range(trials):
            workload = SkewedWorkload(dataset, seed=seed + 1 + trial)
            tasks = workload.single_hop_tasks(n_tasks)
            outcome = run_system_on_tasks(
                SystemSetup(
                    system="asteria",
                    capacity_items=capacity,
                    seed=seed,
                    policy=policy,
                ),
                tasks,
                dataset.universe,
                concurrency=concurrency,
                rate_limit_per_minute=rate_limit_per_minute,
            )
            hits.append(outcome.engine.metrics.hit_rate)
            throughputs.append(outcome.throughput)
            latencies.append(outcome.stats.mean_latency)
            costs.append(outcome.remote.cost_meter.api_cost)
            evictions.append(outcome.engine.metrics.evictions)
        count = len(hits)
        result.add_row(
            policy=policy,
            cache_hit=round(sum(hits) / count, 4),
            throughput_rps=round(sum(throughputs) / count, 4),
            mean_latency_s=round(sum(latencies) / count, 4),
            api_cost_usd=round(sum(costs) / count, 4),
            evictions=round(sum(evictions) / count),
        )
    return result


@claims
def check(result: ExperimentResult):
    lru, lfu, lcfu = (result.row(policy=policy) for policy in DEFAULT_POLICIES)
    tput, spend = "throughput_rps", "api_cost_usd"
    yield "LRU has the lowest throughput", lru[tput] <= min(lfu[tput], lcfu[tput])
    # LCFU's intentional trade: competitive-or-lower hit rate, better
    # system throughput and lower refetch spend.
    yield "LCFU throughput >= LFU", lcfu[tput] >= lfu[tput]
    yield "LCFU API spend <= LFU and LRU", lcfu[spend] <= min(lfu[spend], lru[spend])
