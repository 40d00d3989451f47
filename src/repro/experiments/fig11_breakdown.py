"""Figure 11 — per-request end-to-end latency breakdown at low concurrency.

The paper isolates a single request: vanilla spends 0.6 s on inference plus
0.48 s on external retrieval (1.08 s total); Asteria replaces the remote
call with 0.02 s of cache retrieval and 0.03 s of judger validation
(0.61 s total, with inference unchanged).
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.core import AsteriaConfig
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote, build_vanilla_engine
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_closed_loop
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_requests": 120}


def run(
    dataset_name: str = "musique",
    n_requests: int = 400,
    seed: int = 0,
) -> ExperimentResult:
    """Mean per-request component latencies for vanilla vs Asteria.

    Asteria is measured in steady state (after a warm-up pass that
    populates the cache), mirroring the paper's hit-path breakdown.
    """
    dataset = build_dataset(dataset_name, seed=seed)
    result = ExperimentResult(
        name="Figure 11: per-request latency breakdown",
        notes=(
            "Paper: vanilla 1.08 s = 0.6 inference + 0.48 retrieval; "
            "Asteria 0.61-0.65 s = 0.6 inference + 0.02 cache + 0.03 judger."
        ),
    )

    # -- vanilla ------------------------------------------------------------
    remote = build_remote(dataset.universe, seed=seed)
    vanilla = build_vanilla_engine(remote)
    workload = SkewedWorkload(dataset, seed=seed + 1)
    stats = run_task_closed_loop(
        SearchAgent(vanilla, answer_step=False),
        workload.single_hop_tasks(n_requests),
    )
    mean_total = stats.mean_latency
    mean_inference = sum(r.inference_latency for r in stats.results) / stats.tasks
    mean_retrieval = sum(r.retrieval_latency for r in stats.results) / stats.tasks
    result.add_row(
        system="vanilla",
        total_s=round(mean_total, 4),
        inference_s=round(mean_inference, 4),
        retrieval_s=round(mean_retrieval, 4),
        cache_check_s=0.0,
        judger_s=0.0,
    )

    # -- Asteria (steady state) ------------------------------------------------
    remote = build_remote(dataset.universe, seed=seed)
    engine = build_asteria_engine(remote, AsteriaConfig(), seed=seed)
    warm = SkewedWorkload(dataset, seed=seed + 1)
    run_task_closed_loop(
        SearchAgent(engine, answer_step=False), warm.single_hop_tasks(n_requests)
    )
    engine.metrics.reset()  # Fresh counters; keep the warmed cache.
    measure = SkewedWorkload(dataset, seed=seed + 2)
    stats = run_task_closed_loop(
        SearchAgent(engine, answer_step=False),
        measure.single_hop_tasks(n_requests),
    )
    mean_total = stats.mean_latency
    mean_inference = sum(r.inference_latency for r in stats.results) / stats.tasks
    mean_retrieval = sum(r.retrieval_latency for r in stats.results) / stats.tasks
    ann = engine.config.ann_latency
    judger = max(0.0, engine.metrics.cache_check_latency.mean - ann)
    result.add_row(
        system="asteria",
        total_s=round(mean_total, 4),
        inference_s=round(mean_inference, 4),
        retrieval_s=round(mean_retrieval, 4),
        cache_check_s=round(ann, 4),
        judger_s=round(judger, 4),
        hit_rate=round(engine.metrics.hit_rate, 4),
    )
    return result


@claims
def check(result: ExperimentResult):
    vanilla = result.row(system="vanilla")
    asteria = result.row(system="asteria")
    yield "vanilla total 1.08 +- 0.12 s", abs(vanilla["total_s"] - 1.08) < 0.12
    yield "vanilla inference 0.6 +- 0.05 s", abs(vanilla["inference_s"] - 0.6) < 0.05
    yield "vanilla retrieval 0.45 +- 0.08 s", abs(vanilla["retrieval_s"] - 0.45) < 0.08
    yield "asteria total < 0.75 s", asteria["total_s"] < 0.75
    yield "asteria cache check 20 +- 5 ms", abs(asteria["cache_check_s"] - 0.02) < 0.005
    yield "asteria judger 30 +- 10 ms", abs(asteria["judger_s"] - 0.03) < 0.01
    yield "same inference cost", asteria["inference_s"] == vanilla["inference_s"]
