"""§4.2 ablation — the τ_sim / τ_lsm trade-off surfaces.

The paper describes both thresholds' levers: a permissive τ_sim raises
recall but inflates validation work; a strict τ_lsm raises precision but
rejects marginal matches. This sweep measures hit rate, precision (fraction
of hits that were truly equivalent), and judger workload across the grid —
the data behind choosing (0.7, 0.9) as the operating point and behind
Algorithm 1's precision-curve search.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, SystemSetup, claims
from repro.factory import build_remote
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_closed_loop
from repro.workloads.skewed import SkewedWorkload

DEFAULT_TAU_SIM = (0.6, 0.7, 0.8, 0.95, 0.99)
DEFAULT_TAU_LSM = (0.02, 0.1, 0.5, 0.9)
QUICK = {"tau_sim_values": (0.7, 0.99), "tau_lsm_values": (0.02, 0.9), "n_queries": 300}


def run(
    dataset_name: str = "musique",
    tau_sim_values: tuple[float, ...] = DEFAULT_TAU_SIM,
    tau_lsm_values: tuple[float, ...] = DEFAULT_TAU_LSM,
    cache_ratio: float = 0.6,
    n_queries: int = 800,
    seed: int = 0,
) -> ExperimentResult:
    """One row per (τ_sim, τ_lsm) pair."""
    result = ExperimentResult(
        name="Threshold sweep: tau_sim x tau_lsm",
        notes=(
            "Lower tau_sim -> more candidates judged; lower tau_lsm -> "
            "higher hit rate but lower precision."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    for tau_sim in tau_sim_values:
        for tau_lsm in tau_lsm_values:
            remote = build_remote(dataset.universe, seed=seed)
            setup = SystemSetup(
                system="asteria",
                capacity_items=capacity,
                seed=seed,
                tau_sim=tau_sim,
                tau_lsm=tau_lsm,
            )
            engine = setup.build_engine(remote)
            workload = SkewedWorkload(dataset, seed=seed + 1)
            responses, _ = run_closed_loop(engine, workload.queries(n_queries))
            judged_total = sum(r.lookup.judged for r in responses)
            metrics = engine.metrics
            hits = metrics.hits
            # served_correct counts misses (remote is authoritative) plus
            # correct hits; subtract misses to get hit-path precision.
            correct_hits = metrics.served_correct - metrics.misses
            precision = correct_hits / hits if hits else 1.0
            result.add_row(
                tau_sim=tau_sim,
                tau_lsm=tau_lsm,
                hit_rate=round(metrics.hit_rate, 4),
                hit_precision=round(precision, 4),
                served_incorrect=metrics.served_incorrect,
                judged_per_lookup=round(judged_total / max(1, len(responses)), 3),
            )
    return result


@claims
def check(result: ExperimentResult):
    loose = result.row(tau_sim=0.7, tau_lsm=0.9)
    strict = result.row(tau_sim=0.99, tau_lsm=0.9)
    reckless = result.row(tau_sim=0.7, tau_lsm=0.02)
    hits, precision = "hit_rate", "hit_precision"
    yield "a tau_sim of 0.99 loses > 40 % of the hits", strict[hits] < 0.6 * loose[hits]
    yield "tau_lsm near 0 gains hits", reckless[hits] >= loose[hits]
    yield "tau_lsm near 0 loses precision", reckless[precision] <= loose[precision]
    yield "the operating point keeps precision > 0.995", loose[precision] > 0.995
