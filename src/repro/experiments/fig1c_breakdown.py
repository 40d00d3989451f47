"""Figure 1c — Search-R1 latency breakdown on the vanilla (uncached) agent.

The paper measures that external data retrieval makes up ~40-50 % of total
execution time for Search-R1 on an H100, leaving the GPU ~50 % idle. We
replay multi-hop search tasks through Agent_vanilla and break each task's
wall time into inference vs retrieval.
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_remote, build_vanilla_engine
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_closed_loop
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_tasks": 40}


def run(
    dataset_name: str = "hotpotqa",
    n_tasks: int = 200,
    seed: int = 0,
) -> ExperimentResult:
    """Latency breakdown for the uncached search agent."""
    dataset = build_dataset(dataset_name, seed=seed)
    workload = SkewedWorkload(dataset, seed=seed + 1)
    remote = build_remote(dataset.universe, seed=seed)
    engine = build_vanilla_engine(remote)
    agent = SearchAgent(engine)
    stats = run_task_closed_loop(agent, workload.tasks(n_tasks))

    # The paper's breakdown covers the think-act-observe *cycle*: one LLM
    # generation per external retrieval. Exclude each task's final
    # answer-only generation (hops inference steps of hops+1 are in-loop).
    inference = sum(
        r.inference_latency * r.steps / (r.steps + 1) for r in stats.results
    )
    retrieval = sum(r.retrieval_latency for r in stats.results)
    total = inference + retrieval
    result = ExperimentResult(
        name="Figure 1c: Search-R1 latency breakdown (vanilla agent)",
        notes=(
            "Paper: retrieval is ~40-50% of execution time; GPU utilisation "
            "~50%."
        ),
    )
    result.add_row(
        component="llm_inference",
        seconds=round(inference, 2),
        fraction=round(inference / total, 4),
    )
    result.add_row(
        component="external_retrieval",
        seconds=round(retrieval, 2),
        fraction=round(retrieval / total, 4),
    )
    result.add_row(
        component="gpu_utilisation",
        seconds=round(inference, 2),
        fraction=round(inference / total, 4),
    )
    return result


@claims
def check(result: ExperimentResult):
    retrieval = result.row(component="external_retrieval")["fraction"]
    inference = result.row(component="llm_inference")["fraction"]
    yield "retrieval share in (0.30, 0.55)", 0.30 < retrieval < 0.55
    yield "inference share in (0.45, 0.70)", 0.45 < inference < 0.70
