"""Figure 7 — end-to-end serving on skewed search workloads vs cache ratio.

For each dataset (Zilliz-GPT, HotpotQA, Musique, 2Wiki) and cache-size
ratio, the paper compares Agent_vanilla, Agent_exact, and Agent_Asteria on
throughput, cache hit rate, and latency under Zipf(0.99) traffic with a
rate-limited search API. Headline shapes: Asteria sustains >85 % hit rates
where exact-match stays below 20 %, yielding up to 3.6× throughput and up to
4× lower latency.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.datasets import DATASET_NAMES, build_dataset
from repro.workloads.skewed import SkewedWorkload

DEFAULT_RATIOS = (0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_SYSTEMS = ("vanilla", "exact", "asteria")
QUICK = {"cache_ratios": (0.1, 0.4, 0.8), "n_tasks": 500}


def run(
    dataset_names: tuple[str, ...] = DATASET_NAMES,
    cache_ratios: tuple[float, ...] = DEFAULT_RATIOS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    n_tasks: int = 1000,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = 100,
    seed: int = 0,
) -> ExperimentResult:
    """The full sweep; one row per (dataset, ratio, system)."""
    result = ExperimentResult(
        name="Figure 7: skewed search workloads (Zipf 0.99) vs cache ratio",
        notes=(
            "Paper shape: Asteria >85% hit rate and up to 3.6x throughput "
            "over exact-match (<20% hits) across all four datasets."
        ),
    )
    for dataset_name in dataset_names:
        dataset = build_dataset(dataset_name, seed=seed)
        for ratio in cache_ratios:
            capacity = dataset.capacity_for(ratio)
            for system in systems:
                workload = SkewedWorkload(dataset, seed=seed + 1)
                tasks = workload.single_hop_tasks(n_tasks)
                outcome = run_system_on_tasks(
                    SystemSetup(system=system, capacity_items=capacity, seed=seed),
                    tasks,
                    dataset.universe,
                    concurrency=concurrency,
                    rate_limit_per_minute=rate_limit_per_minute,
                )
                result.add_row(
                    dataset=dataset_name,
                    cache_ratio=ratio,
                    **outcome.metrics_row(),
                )
    return result


@claims
def check(result: ExperimentResult):
    for ds in DATASET_NAMES:
        vanilla, exact, asteria = (
            result.row(dataset=ds, cache_ratio=0.4, system=system)
            for system in DEFAULT_SYSTEMS
        )
        v_tput, e_tput, a_tput = (
            r["throughput_rps"] for r in (vanilla, exact, asteria)
        )
        yield f"{ds}: asteria hit rate > 0.8", asteria["hit_rate"] > 0.8
        yield f"{ds}: exact hit rate < 0.2", exact["hit_rate"] < 0.2
        yield f"{ds}: asteria > exact >= 0.8x vanilla", a_tput > e_tput >= 0.8 * v_tput
        yield f"{ds}: asteria throughput > 2x exact", a_tput > 2.0 * e_tput
        yield f"{ds}: asteria latency < 0.6x vanilla", (
            asteria["mean_latency_s"] < 0.6 * vanilla["mean_latency_s"]
        )
        yield f"{ds}: asteria API calls < 0.4x vanilla", (
            asteria["api_calls"] < 0.4 * vanilla["api_calls"]
        )
        small, large = (
            result.row(dataset=ds, cache_ratio=ratio, system="asteria")["hit_rate"]
            for ratio in (0.1, 0.8)
        )
        yield f"{ds}: hit rate at ratio 0.8 >= ratio 0.1 - 0.02", large >= small - 0.02
