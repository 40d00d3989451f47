"""Table 7 — co-location efficiency: MPS 80/20 vs a dedicated judger GPU.

The paper co-locates the agent and judger on one GPU (CUDA MPS, 80 %/20 %)
and retains 94 % of dedicated-two-GPU throughput (2.72 vs 2.89 req/s) with a
9.5 % higher p99. ``run_serving_experiment`` is the shared machinery — the
cost analysis (Table 5) reuses it with its three configurations.
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.core import AsteriaConfig
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote, build_vanilla_engine
from repro.serving.executor import PartitionJudgeExecutor
from repro.serving.gpu import GpuDevice
from repro.serving.memory import KVMemoryPool
from repro.serving.scheduler import PriorityAwareScheduler
from repro.sim.kernel import Simulator
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_concurrent
from repro.workloads.skewed import SkewedWorkload

#: Sublinear MPS compute-capping exponent (see GpuPartition.speed_exponent).
MPS_SPEED_EXPONENT = 0.3
#: Continuous-batching slots for the agent's partition.
AGENT_SLOTS = 8
#: H100-class memory budget for KV caches (GB).
TOTAL_KV_GB = 80.0


def _build_serving_stack(sim: Simulator, serving_mode: str):
    """GPU devices, partitions, memory, and scheduler for one mode.

    Returns (scheduler, judge_executor_or_None, gpu_count).
    """
    if serving_mode == "colocated":
        gpu = GpuDevice(sim, "gpu0")
        agent_part = gpu.partition(
            "agent", 0.8, slots=AGENT_SLOTS, speed_exponent=MPS_SPEED_EXPONENT
        )
        judger_part = gpu.partition(
            "judger", 0.2, slots=2, speed_exponent=MPS_SPEED_EXPONENT
        )
        memory = KVMemoryPool(TOTAL_KV_GB, {"agent": 56.0, "judger": 4.0})
        scheduler = PriorityAwareScheduler(sim, agent_part, judger_part, memory)
        return scheduler, PartitionJudgeExecutor(scheduler), 1
    if serving_mode == "dedicated":
        gpu0 = GpuDevice(sim, "gpu0")
        gpu1 = GpuDevice(sim, "gpu1")
        agent_part = gpu0.partition("agent", 1.0, slots=AGENT_SLOTS)
        judger_part = gpu1.partition("judger", 1.0, slots=2)
        memory = KVMemoryPool(2 * TOTAL_KV_GB, {"agent": 72.0, "judger": 72.0})
        scheduler = PriorityAwareScheduler(
            sim, agent_part, judger_part, memory, shared=False
        )
        return scheduler, PartitionJudgeExecutor(scheduler), 2
    if serving_mode == "vanilla":
        gpu0 = GpuDevice(sim, "gpu0")
        agent_part = gpu0.partition("agent", 1.0, slots=AGENT_SLOTS)
        # No judger work will ever be submitted; give the scheduler an
        # isolated partition so admission logic stays uniform.
        phantom = GpuDevice(sim, "phantom")
        judger_part = phantom.partition("judger", 1.0, slots=1)
        memory = KVMemoryPool(TOTAL_KV_GB, {"agent": 72.0, "judger": 0.0})
        scheduler = PriorityAwareScheduler(sim, agent_part, judger_part, memory)
        return scheduler, None, 1
    raise ValueError(
        f"unknown serving_mode {serving_mode!r}; expected "
        "colocated/dedicated/vanilla"
    )


def run_serving_experiment(
    serving_mode: str,
    dataset_name: str = "musique",
    cache_ratio: float = 0.6,
    n_tasks: int = 400,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = 100,
    seed: int = 0,
) -> dict:
    """One serving-mode run with GPU-scheduled inference and judging.

    Returns a metrics dict (throughput, p99, hit rate, API calls, gpus).
    """
    sim = Simulator()
    scheduler, judge_executor, gpu_count = _build_serving_stack(sim, serving_mode)
    dataset = build_dataset(dataset_name, seed=seed)
    remote = build_remote(
        dataset.universe,
        rate_limit_per_minute=rate_limit_per_minute,
        seed=seed,
    )
    if serving_mode == "vanilla":
        engine = build_vanilla_engine(remote)
    else:
        capacity = dataset.capacity_for(cache_ratio)
        engine = build_asteria_engine(
            remote,
            AsteriaConfig(capacity_items=capacity),
            seed=seed,
            judge_executor=judge_executor,
        )
    agent = SearchAgent(engine, scheduler=scheduler, answer_step=False)
    workload = SkewedWorkload(dataset, seed=seed + 1)
    tasks = workload.single_hop_tasks(n_tasks)
    stats = run_task_concurrent(sim, agent, tasks, concurrency=concurrency)
    horizon = sim.now
    return {
        "serving_mode": serving_mode,
        "throughput_rps": stats.throughput(horizon) if horizon > 0 else 0.0,
        "mean_latency_s": stats.mean_latency,
        "p99_latency_s": stats.percentile_latency(99),
        "hit_rate": engine.metrics.hit_rate,
        "api_calls": remote.calls,
        "gpus": gpu_count,
        "judger_deferred": scheduler.stats.judger_deferred,
        "judger_dispatched": scheduler.stats.judger_dispatched,
    }


QUICK = {"n_tasks": 200}


def run(
    dataset_name: str = "musique",
    cache_ratio: float = 0.6,
    n_tasks: int = 600,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Dedicated-2GPU vs co-located MPS 80/20 on throughput and p99.

    The rate limiter is off by default so GPU contention — the effect under
    study — dominates; with a tight limiter both configurations converge on
    the remote bottleneck instead.
    """
    result = ExperimentResult(
        name="Table 7: co-location efficiency",
        notes=(
            "Paper: co-located retains 94% of dedicated throughput "
            "(2.72 vs 2.89 req/s) with +9.5% p99."
        ),
    )
    outcomes = {}
    for mode in ("dedicated", "colocated"):
        outcomes[mode] = run_serving_experiment(
            serving_mode=mode,
            dataset_name=dataset_name,
            cache_ratio=cache_ratio,
            n_tasks=n_tasks,
            concurrency=concurrency,
            rate_limit_per_minute=rate_limit_per_minute,
            seed=seed,
        )
    dedicated = outcomes["dedicated"]
    for mode in ("dedicated", "colocated"):
        outcome = outcomes[mode]
        result.add_row(
            configuration="Dedicated-2GPU" if mode == "dedicated" else "Co-located (MPS 80/20)",
            throughput_rps=round(outcome["throughput_rps"], 3),
            p99_latency_ms=round(outcome["p99_latency_s"] * 1000.0, 1),
            throughput_retention=round(
                outcome["throughput_rps"] / dedicated["throughput_rps"], 3
            )
            if dedicated["throughput_rps"] > 0
            else 0.0,
            p99_inflation=round(
                outcome["p99_latency_s"] / dedicated["p99_latency_s"] - 1.0, 3
            )
            if dedicated["p99_latency_s"] > 0
            else 0.0,
            hit_rate=round(outcome["hit_rate"], 3),
            gpus=outcome["gpus"],
        )
    return result


@claims
def check(result: ExperimentResult):
    dedicated = result.row(configuration="Dedicated-2GPU")
    colocated = result.row(configuration="Co-located (MPS 80/20)")
    yield "2 GPUs dedicated, 1 shared", (dedicated["gpus"], colocated["gpus"]) == (2, 1)
    yield "co-location retains 88-99 %", 0.88 < colocated["throughput_retention"] < 0.99
    yield "p99 inflation in (0, 0.25)", 0.0 < colocated["p99_inflation"] < 0.25
    yield "same hit rate +- 0.02", abs(colocated["hit_rate"] - dedicated["hit_rate"]) < 0.02
