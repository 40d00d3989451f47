"""Judger-quality sensitivity: how good must the LSM actually be?

§5 argues the judger is a pluggable component whose accuracy "can be
improved with minimal effort when needed". This sweep quantifies the
requirement: the judger's irreducible error rate (our ``flip_rate``) varies
from perfect to badly confused, and we measure what survives — hit rate
(false *negatives* burn hits), knowledge accuracy (false *positives* serve
wrong answers), and the resulting end-to-end EM estimate.
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.core import AsteriaConfig
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote
from repro.judger import SimulatedJudger
from repro.sim.random import derive_seed
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_closed_loop
from repro.workloads.skewed import SkewedWorkload

DEFAULT_FLIP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
QUICK = {"flip_rates": (0.0, 0.02, 0.2), "n_tasks": 150}


def run(
    dataset_name: str = "musique",
    flip_rates: tuple[float, ...] = DEFAULT_FLIP_RATES,
    cache_ratio: float = 0.12,
    n_tasks: int = 400,
    seed: int = 0,
) -> ExperimentResult:
    """One row per judger error rate, multi-hop tasks (errors compound).

    The default cache ratio (0.12) keeps the cache contended so both error
    directions are visible: false negatives burn hits, and false positives
    get real chances to serve a confusable (with the whole universe cached,
    the true match always outranks the lookalike and FPs hide).
    """
    result = ExperimentResult(
        name="Judger quality sweep: LSM error rate vs cache usefulness",
        notes=(
            "flip_rate is the judger's irreducible confusion probability; "
            "0.02 corresponds to the calibrated Qwen3-0.6B stand-in."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    for flip_rate in flip_rates:
        remote = build_remote(dataset.universe, seed=seed)
        judger = SimulatedJudger(
            seed=derive_seed(seed, "judger"), flip_rate=flip_rate
        )
        engine = build_asteria_engine(
            remote,
            AsteriaConfig(capacity_items=capacity),
            seed=seed,
            judger=judger,
        )
        workload = SkewedWorkload(dataset, seed=seed + 1)
        stats = run_task_closed_loop(
            SearchAgent(engine, answer_step=False), workload.tasks(n_tasks)
        )
        metrics = engine.metrics
        result.add_row(
            flip_rate=flip_rate,
            hit_rate=round(metrics.hit_rate, 4),
            knowledge_accuracy=round(stats.accuracy, 4),
            em_estimate=round(dataset.base_em * stats.accuracy, 4),
            wrong_servings=metrics.served_incorrect,
            api_calls=remote.calls,
        )
    return result


@claims
def check(result: ExperimentResult):
    perfect, calibrated, degraded = (result.row(flip_rate=r) for r in (0.0, 0.02, 0.2))
    hits, accuracy = result.column("hit_rate"), "knowledge_accuracy"
    yield "calibrated hits within 0.05 of perfect", (
        calibrated["hit_rate"] > perfect["hit_rate"] - 0.05
    )
    yield "calibrated serves > 99 % right", calibrated[accuracy] > 0.99
    yield "hit rate falls with flip rate", hits == sorted(hits, reverse=True)
    yield "10x worse still hits > 50 %", degraded["hit_rate"] > 0.5
    yield "10x worse still serves > 90 % right", degraded[accuracy] > 0.9
    yield "judger errors cost calls", degraded["api_calls"] > perfect["api_calls"]
