"""§6.7 — threshold recalibration: overhead and drift stabilisation.

The paper samples 5 recent queries per minute for ground-truth labelling and
reports a ~2 % throughput cost for stabilised precision under drift. ``run``
measures the overhead (Asteria with and without recalibration on the same
stream); ``run_drift`` measures the stabilisation: mid-run the judger's
error rate jumps (workload drift into a domain it handles badly) and the
recalibrated system restores precision by tightening τ_lsm — and, with the
§5 fine-tuning hook, by improving the judger itself.
"""

from __future__ import annotations

from repro.agent.search_agent import SearchAgent
from repro.core import AsteriaConfig
from repro.experiments.harness import (
    ExperimentResult, SystemSetup, claims, run_system_on_tasks,
)
from repro.factory import build_asteria_engine, build_remote
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_task_closed_loop
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_tasks": 300}


def run(
    dataset_name: str = "hotpotqa",
    cache_ratio: float = 0.4,
    n_tasks: int = 800,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = 100,
    recalibration_interval: float = 10.0,
    seed: int = 0,
) -> ExperimentResult:
    """Asteria with recalibration off vs on."""
    result = ExperimentResult(
        name="Recalibration overhead (§6.7)",
        notes=(
            "Paper: ~2% throughput cost; small periodic samples keep the "
            "precision target under drift."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    throughputs = {}
    for recalibrate in (False, True):
        workload = SkewedWorkload(dataset, seed=seed + 1)
        tasks = workload.single_hop_tasks(n_tasks)
        outcome = run_system_on_tasks(
            SystemSetup(
                system="asteria",
                capacity_items=capacity,
                seed=seed,
                recalibration=recalibrate,
                # The paper recalibrates once a minute over hour-long runs;
                # these compressed traces last a few simulated minutes, so
                # the interval is scaled down proportionally.
                recalibration_interval=recalibration_interval,
            ),
            tasks,
            dataset.universe,
            concurrency=concurrency,
            rate_limit_per_minute=rate_limit_per_minute,
        )
        throughputs[recalibrate] = outcome.throughput
        engine = outcome.engine
        result.add_row(
            recalibration="on" if recalibrate else "off",
            throughput_rps=round(outcome.throughput, 4),
            hit_rate=round(engine.metrics.hit_rate, 4),
            accuracy=round(engine.metrics.accuracy, 4),
            rounds=engine.metrics.recalibrations,
            final_tau_lsm=round(engine.cache.sine.tau_lsm, 4)
            if hasattr(engine, "cache")
            else None,
            gt_fetches=outcome.remote.cost_meter.by_tool().get("ground-truth", 0.0),
        )
    if throughputs[False] > 0:
        overhead = 1.0 - throughputs[True] / throughputs[False]
        result.notes += f" Measured overhead: {overhead:.2%}."
    return result


@claims
def check(result: ExperimentResult):
    off = result.row(recalibration="off")
    on = result.row(recalibration="on")
    yield "at least two recalibration rounds", on["rounds"] >= 2
    yield "overhead < 5 %", on["throughput_rps"] > 0.95 * off["throughput_rps"]
    yield "accuracy >= 0.99 with recalibration", on["accuracy"] >= 0.99
    yield "ground truth was sampled", on["gt_fetches"] > 0


DRIFT_QUICK = {"phase_tasks": 200}


def run_drift(
    dataset_name: str = "musique",
    cache_ratio: float = 0.1,
    phase_tasks: int = 400,
    drifted_neg: tuple = (12.0, 2.0),
    recalibration_interval: float = 20.0,
    seed: int = 0,
) -> ExperimentResult:
    """Accuracy under judger drift, with and without Algorithm 1 (+ §5).

    Phase 1 is the normal workload; at the phase boundary the judger's
    score separation degrades — non-equivalent pairs start drawing from
    Beta(12, 2) (mean 0.86 with real mass above τ) instead of the calibrated
    Beta(0.8, 20) — modelling drift into a domain whose distinctions the
    LSM has not learned. Three configurations serve phase 2: recalibration
    off, recalibration on (τ tightens), and recalibration + fine-tuning
    (the judger itself recovers). Reported: phase-2 hit rate, hit
    precision, final τ_lsm, and the judger's final negative-score mean.
    """
    result = ExperimentResult(
        name="Recalibration under judger drift (§6.7 + §5)",
        notes=(
            "Paper: recalibration stabilises accuracy under drift at "
            "negligible cost; the annotated set can also fine-tune the LSM."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    configurations = (
        ("no_recalibration", False, False),
        ("recalibration", True, False),
        ("recalibration_finetune", True, True),
    )
    for label, recalibrate, finetune in configurations:
        remote = build_remote(dataset.universe, seed=seed)
        config = AsteriaConfig(
            capacity_items=capacity,
            recalibration_enabled=recalibrate,
            recalibration_interval=recalibration_interval,
            recalibration_samples=20,
            finetune_enabled=finetune,
        )
        engine = build_asteria_engine(remote, config, seed=seed)
        agent = SearchAgent(engine, answer_step=False)
        workload = SkewedWorkload(dataset, seed=seed + 1)
        phase1 = run_task_closed_loop(agent, workload.single_hop_tasks(phase_tasks))
        # The drift moment: non-equivalent pairs stop looking obviously
        # different to the judger.
        judger = engine.cache.sine.judger
        judger.neg_alpha, judger.neg_beta = drifted_neg
        if engine.recalibrator is not None:
            engine.recalibrator.forget()  # Pre-drift labels are stale.
        engine.metrics.reset()
        phase2 = SkewedWorkload(dataset, seed=seed + 2)
        stats = run_task_closed_loop(
            agent,
            phase2.single_hop_tasks(phase_tasks),
            start=phase1.results[-1].finished_at,
        )
        metrics = engine.metrics
        correct_hits = metrics.served_correct - metrics.misses
        precision = correct_hits / metrics.hits if metrics.hits else 1.0
        final_neg_mean = judger.neg_alpha / (judger.neg_alpha + judger.neg_beta)
        result.add_row(
            configuration=label,
            phase2_hit_rate=round(metrics.hit_rate, 4),
            phase2_hit_precision=round(precision, 4),
            phase2_task_accuracy=round(stats.accuracy, 4),
            final_tau_lsm=round(engine.cache.sine.tau_lsm, 4),
            final_neg_score_mean=round(final_neg_mean, 4),
            recalibration_rounds=metrics.recalibrations,
        )
    return result


@claims
def check_drift(result: ExperimentResult):
    uncorrected, corrected, tuned = (
        result.row(configuration=label)
        for label in ("no_recalibration", "recalibration", "recalibration_finetune")
    )
    precision = "phase2_hit_precision"
    yield "drift costs precision without recalibration", uncorrected[precision] < 0.995
    yield "recalibration restores precision >= 0.999", corrected[precision] >= 0.999
    yield "recalibration tightens tau_lsm above 0.9", corrected["final_tau_lsm"] > 0.9
    yield "at least two recalibration rounds", corrected["recalibration_rounds"] >= 2
    yield "fine-tuning repairs the judger", tuned["final_neg_score_mean"] < 0.2
    yield "fine-tuning keeps precision >= 0.999", tuned[precision] >= 0.999
    yield "fine-tuning wins back hit rate", (
        tuned["phase2_hit_rate"] >= corrected["phase2_hit_rate"]
    )
