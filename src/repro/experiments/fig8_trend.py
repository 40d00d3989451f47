"""Figure 8 — trend-driven (bursty) workload vs cache ratio.

The paper compresses 12 hours of Google Trends into a 10-minute trace and
reports up to 3.8× throughput over Agent_vanilla with ~95 % hit rates,
crediting the LCFU policy's staticity-aware self-cleaning. The trace is an
open-loop arrival stream, so throughput here is completed requests/second
over the trace; prefetching is enabled for Asteria (the trend correlations
are what it exploits).
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, SystemSetup, claims
from repro.factory import build_remote
from repro.sim.kernel import Simulator
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_open_loop
from repro.workloads.trend import TrendWorkload

DEFAULT_RATIOS = (0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_SYSTEMS = ("vanilla", "exact", "asteria")
QUICK = {"cache_ratios": (0.2, 0.6), "duration": 200.0}


def run(
    dataset_name: str = "hotpotqa",
    cache_ratios: tuple[float, ...] = DEFAULT_RATIOS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    duration: float = 600.0,
    base_rate: float = 1.0,
    rate_limit_per_minute: int | None = 100,
    seed: int = 0,
) -> ExperimentResult:
    """One row per (ratio, system) over the bursty trace."""
    result = ExperimentResult(
        name="Figure 8: trend-driven workload vs cache ratio",
        notes=(
            "Paper shape: ~95% hit rate, up to 3.8x throughput over vanilla; "
            "LCFU's staticity term reclaims space from stale trends."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    for ratio in cache_ratios:
        capacity = dataset.capacity_for(ratio)
        for system in systems:
            workload = TrendWorkload(
                dataset, duration=duration, base_rate=base_rate, seed=seed + 1
            )
            arrivals = workload.timed_queries()
            sim = Simulator()
            remote = build_remote(
                dataset.universe,
                rate_limit_per_minute=rate_limit_per_minute,
                seed=seed,
            )
            setup = SystemSetup(
                system=system,
                capacity_items=capacity,
                seed=seed,
                prefetch=system == "asteria",
            )
            engine = setup.build_engine(remote)
            responses = run_open_loop(sim, engine, arrivals)
            horizon = max(sim.now, duration)
            latencies = sorted(response.latency for response in responses)
            p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
            result.add_row(
                cache_ratio=ratio,
                system=system,
                throughput_rps=round(len(responses) / horizon, 4),
                hit_rate=round(engine.metrics.hit_rate, 4),
                mean_latency_s=round(
                    sum(latencies) / len(latencies) if latencies else 0.0, 4
                ),
                p99_latency_s=round(p99, 4),
                api_calls=remote.calls,
                retry_ratio=round(remote.retry_ratio, 4),
                prefetches=engine.metrics.prefetches_issued,
            )
    return result


@claims
def check(result: ExperimentResult):
    for ratio in (0.2, 0.6):
        vanilla, exact, asteria = (
            result.row(cache_ratio=ratio, system=system) for system in DEFAULT_SYSTEMS
        )
        yield f"ratio {ratio}: asteria hit rate > 0.85", asteria["hit_rate"] > 0.85
        yield f"ratio {ratio}: exact hit rate < 0.25", exact["hit_rate"] < 0.25
        # Vanilla's completions trickle out at the rate limit long after the
        # trace ends, inflating its nominal completions/second; the gap is
        # still well above 1.5x and the latency collapse is the real story.
        yield f"ratio {ratio}: asteria throughput > 1.5x vanilla", (
            asteria["throughput_rps"] > 1.5 * vanilla["throughput_rps"]
        )
        yield f"ratio {ratio}: asteria p99 < 0.1x vanilla", (
            asteria["p99_latency_s"] < 0.1 * vanilla["p99_latency_s"]
        )
