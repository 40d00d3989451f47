"""Figure 12 — data-retrieval call volume and retry ratio under rate limits.

The paper runs a fixed task set against the 100-QPM search API: vanilla
issues ~1300 external calls with a 25 % retry ratio; Asteria issues 103
(a 92 % reduction) with retries at 0.5 %.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

DEFAULT_SYSTEMS = ("vanilla", "asteria")
QUICK: dict = {}


def run(
    dataset_name: str = "musique",
    cache_ratio: float = 0.4,
    n_tasks: int = 1300,
    concurrency: int = 8,
    rate_limit_per_minute: int = 100,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    seed: int = 0,
) -> ExperimentResult:
    """API call counts and retry ratios for the fixed task stream."""
    result = ExperimentResult(
        name="Figure 12: data retrieval calls and retry ratio",
        notes=(
            "Paper: vanilla ~1300 calls / 25% retries; Asteria 103 calls "
            "(-92%) / 0.5% retries."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    vanilla_calls = None
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
        calls = outcome.remote.calls
        if system == "vanilla":
            vanilla_calls = calls
        reduction = (
            round(1.0 - calls / vanilla_calls, 4)
            if vanilla_calls not in (None, 0)
            else 0.0
        )
        result.add_row(
            system=system,
            tasks=n_tasks,
            api_calls=calls,
            retries=outcome.remote.retries,
            retry_ratio=round(outcome.remote.retry_ratio, 4),
            call_reduction=reduction,
            hit_rate=round(outcome.engine.metrics.hit_rate, 4),
        )
    return result


@claims
def check(result: ExperimentResult):
    vanilla = result.row(system="vanilla")
    asteria = result.row(system="asteria")
    yield "vanilla pays one call per task", vanilla["api_calls"] == vanilla["tasks"]
    yield "asteria makes > 85 % fewer calls", asteria["call_reduction"] > 0.85
    yield "asteria retry ratio < 0.02", asteria["retry_ratio"] < 0.02
    yield "vanilla retry ratio > 0.15", vanilla["retry_ratio"] > 0.15
