"""Table 4 — normalised throughput with and without API rate limits.

Using the self-deployed RAG service (300 ms, no fee) so the limiter can be
toggled, the paper finds Asteria is 1.5× faster than vanilla without a rate
limit (pure latency savings) and 4.16× faster with one — i.e. rate-limit
avoidance alone contributes an extra ~2.8×.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_tasks": 300}


def run(
    dataset_name: str = "musique",
    cache_ratio: float = 0.4,
    n_tasks: int = 800,
    concurrency: int = 8,
    rate_limit_per_minute: int = 100,
    seed: int = 0,
) -> ExperimentResult:
    """Normalised throughput for {vanilla, asteria} x {no limit, limit}."""
    result = ExperimentResult(
        name="Table 4: normalised throughput, w/o vs w/ API rate limit",
        notes="Paper: Asteria 1.5x without a limit, 4.16x with one.",
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    throughputs: dict[tuple[str, bool], float] = {}
    for limited in (False, True):
        for system in ("vanilla", "asteria"):
            workload = SkewedWorkload(dataset, seed=seed + 1)
            tasks = workload.single_hop_tasks(n_tasks)
            outcome = run_system_on_tasks(
                SystemSetup(system=system, capacity_items=capacity, seed=seed),
                tasks,
                dataset.universe,
                concurrency=concurrency,
                rate_limit_per_minute=rate_limit_per_minute if limited else None,
                remote_latency=0.3,
                cost_per_call=0.0,
            )
            throughputs[(system, limited)] = outcome.throughput
    for limited in (False, True):
        baseline = throughputs[("vanilla", limited)]
        for system in ("vanilla", "asteria"):
            absolute = throughputs[(system, limited)]
            result.add_row(
                rate_limit="with" if limited else "without",
                system=system,
                throughput_rps=round(absolute, 4),
                normalized=round(absolute / baseline, 3) if baseline > 0 else 0.0,
            )
    return result


@claims
def check(result: ExperimentResult):
    without = result.row(rate_limit="without", system="asteria")["normalized"]
    limited = result.row(rate_limit="with", system="asteria")["normalized"]
    yield "latency-only gain in (1.15, 2.0)", 1.15 < without < 2.0
    yield "gain under the rate limit > 2.5x", limited > 2.5
    yield "the limit multiplies the gain by > 1.5", limited > 1.5 * without
