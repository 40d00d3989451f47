"""Figure 13 — generation quality (Exact Match) with and without the judger.

The paper scores final answers by Exact Match. Asteria matches the
non-cached baseline, while the ANN-only ablation ("Asteria w/o judger")
drops — e.g. 0.69 vs 0.79 on StrategyQA — because vector similarity serves
related-but-wrong knowledge.

In our substrate the final answer is correct when (a) the agent's base
competence succeeds — the per-dataset ``base_em`` — and (b) every piece of
knowledge served during the task was the right fact. The EM estimate is
therefore ``base_em * P(knowledge path correct)``, with (b) measured.
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.experiments.harness import ExperimentResult, SystemSetup, claims
from repro.factory import build_remote
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_closed_loop
from repro.workloads.skewed import SkewedWorkload

DEFAULT_DATASETS = ("zilliz_gpt", "hotpotqa", "musique", "two_wiki", "strategyqa")
DEFAULT_SYSTEMS = ("vanilla", "asteria", "ann_only")
QUICK = {"n_tasks": 150}


def run(
    dataset_names: tuple[str, ...] = DEFAULT_DATASETS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    cache_ratio: float = 0.6,
    n_tasks: int = 400,
    seed: int = 0,
) -> ExperimentResult:
    """EM scores per (dataset, system); multi-hop tasks stress correctness."""
    result = ExperimentResult(
        name="Figure 13: generation quality (Exact Match)",
        notes=(
            "Paper shape: Asteria == vanilla; ANN-only drops (e.g. "
            "StrategyQA 0.69 vs 0.79)."
        ),
    )
    for dataset_name in dataset_names:
        dataset = build_dataset(dataset_name, seed=seed)
        capacity = dataset.capacity_for(cache_ratio)
        for system in systems:
            remote = build_remote(dataset.universe, seed=seed)
            setup = SystemSetup(system=system, capacity_items=capacity, seed=seed)
            engine = setup.build_engine(remote)
            workload = SkewedWorkload(dataset, seed=seed + 1)
            stats = run_task_closed_loop(SearchAgent(engine), workload.tasks(n_tasks))
            knowledge_accuracy = stats.accuracy
            result.add_row(
                dataset=dataset_name,
                system=system,
                em_score=round(dataset.base_em * knowledge_accuracy, 4),
                knowledge_accuracy=round(knowledge_accuracy, 4),
                hit_rate=round(engine.metrics.hit_rate, 4),
                served_incorrect=engine.metrics.served_incorrect,
            )
    return result


@claims
def check(result: ExperimentResult):
    def em(dataset: str, system: str) -> float:
        return result.row(dataset=dataset, system=system)["em_score"]

    for ds in DEFAULT_DATASETS:
        vanilla, asteria, ann_only = (em(ds, system) for system in DEFAULT_SYSTEMS)
        yield f"{ds}: asteria EM within 0.02 of vanilla", abs(asteria - vanilla) < 0.02
        # ANN-only always loses something; low-ambiguity Zilliz loses least.
        margin = 0.0 if ds == "zilliz_gpt" else 0.015
        yield f"{ds}: ann-only EM > {margin} below vanilla", ann_only < vanilla - margin
    # The paper's quoted StrategyQA pair: 0.79 baseline, ~0.69 ANN-only.
    yield "strategyqa: vanilla EM is 0.79", em("strategyqa", "vanilla") == 0.79
    yield "strategyqa: ann-only EM in (0.6, 0.75)", (
        0.6 < em("strategyqa", "ann_only") < 0.75
    )
