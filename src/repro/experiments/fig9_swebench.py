"""Figure 9 — SWE-bench coding workload vs cache ratio.

Coding agents resolve GitHub issues against a shared repository; shared core
files make ~45 % of file fetches cacheable, which the paper reports as a
~20 % throughput gain over both baselines. The remote here is the
self-deployed RAG/file service: flat 300 ms, no per-call fee, no rate limit.
"""

from __future__ import annotations

from repro.agent.code_agent import CodeAgent
from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.workloads.swebench import SWEBenchWorkload

DEFAULT_RATIOS = (0.1, 0.2, 0.4, 0.6, 0.8)
DEFAULT_SYSTEMS = ("vanilla", "exact", "asteria")
QUICK = {"cache_ratios": (0.4,), "n_issues": 120}


def run(
    cache_ratios: tuple[float, ...] = DEFAULT_RATIOS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    n_issues: int = 300,
    concurrency: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """One row per (ratio, system) over generated sqlfluff issues."""
    result = ExperimentResult(
        name="Figure 9: SWE-bench workload vs cache ratio",
        notes=(
            "Paper shape: ~45% hit rate and ~20% throughput gain for "
            "Asteria; exact-match misses same-file rephrasings."
        ),
    )
    workload = SWEBenchWorkload(seed=seed)
    n_files = len(workload.universe)
    for ratio in cache_ratios:
        capacity = max(1, int(ratio * n_files))
        for system in systems:
            issue_stream = SWEBenchWorkload(seed=seed)
            issues = issue_stream.issues(n_issues)
            outcome = run_system_on_tasks(
                SystemSetup(system=system, capacity_items=capacity, seed=seed),
                issues,
                issue_stream.universe,
                concurrency=concurrency,
                rate_limit_per_minute=None,
                remote_latency=0.3,
                cost_per_call=0.0,
                agent_factory=lambda engine: CodeAgent(engine, answer_step=False),
            )
            result.add_row(
                cache_ratio=ratio,
                **outcome.metrics_row(),
            )
    return result


@claims
def check(result: ExperimentResult):
    vanilla, exact, asteria = (
        result.row(cache_ratio=0.4, system=system) for system in DEFAULT_SYSTEMS
    )
    v_tput, e_tput, a_tput = (r["throughput_rps"] for r in (vanilla, exact, asteria))
    yield "asteria hit rate in (0.3, 0.8)", 0.3 < asteria["hit_rate"] < 0.8
    yield "exact hit rate < 0.1", exact["hit_rate"] < 0.1
    yield "asteria throughput 1.05-1.6x vanilla", 1.05 < a_tput / v_tput < 1.6
    yield "asteria throughput > exact", a_tput > e_tput
