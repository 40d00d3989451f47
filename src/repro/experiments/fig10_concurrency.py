"""Figure 10 — throughput vs request rate/concurrency (Musique, ratio 0.4).

The paper's baselines plateau near 1 req/s — every request waits on a
rate-limited remote — while Asteria scales nearly linearly to 4.89 req/s at
a request rate of 8 (4.5× over exact, 5.7× over vanilla).
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

DEFAULT_CONCURRENCY = (1, 2, 4, 8)
DEFAULT_SYSTEMS = ("vanilla", "exact", "asteria")
QUICK = {"concurrency_levels": (1, 4, 8), "n_tasks": 300}


def run(
    dataset_name: str = "musique",
    cache_ratio: float = 0.4,
    concurrency_levels: tuple[int, ...] = DEFAULT_CONCURRENCY,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    n_tasks: int = 1000,
    rate_limit_per_minute: int | None = 100,
    seed: int = 0,
) -> ExperimentResult:
    """One row per (concurrency, system)."""
    result = ExperimentResult(
        name="Figure 10: throughput under varying request concurrency",
        notes=(
            "Paper shape: baselines saturate ~1 req/s; Asteria scales nearly "
            "linearly (4.89 req/s at rate 8 -> 4.5x/5.7x)."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    for concurrency in concurrency_levels:
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
                concurrency=concurrency,
                **outcome.metrics_row(),
            )
    return result


@claims
def check(result: ExperimentResult):
    def tput(concurrency: int, system: str) -> float:
        return result.row(concurrency=concurrency, system=system)["throughput_rps"]

    yield "asteria: 8 callers > 5x one", tput(8, "asteria") > 5 * tput(1, "asteria")
    yield "vanilla: 8 < 1.5x four", tput(8, "vanilla") < 1.5 * tput(4, "vanilla")
    yield "asteria > 2.5x vanilla at 8", tput(8, "asteria") > 2.5 * tput(8, "vanilla")
    yield "asteria > 2x exact at 8", tput(8, "asteria") > 2.0 * tput(8, "exact")
