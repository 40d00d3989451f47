"""Miss-coalescing ablation: the flash crowd on fresh knowledge.

The thundering herd is sharpest at the moment Figure 3's event fires: a
breaking topic nobody has cached yet draws hundreds of concurrent queries,
and — without coalescing — every one of them misses and pays its own remote
fetch for an answer already in flight, burning rate-limit quota exactly when
it is scarcest. This study models that instant: ``n_clients`` queries for
``n_facts`` brand-new facts arrive within one second of a cold cache, with
and without in-flight fetch sharing.
"""

from __future__ import annotations

import numpy as np

from repro.core import AsteriaConfig
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote
from repro.sim.kernel import Simulator
from repro.sim.random import derive_seed
from repro.workloads.datasets import build_dataset
from repro.workloads.replay import run_open_loop

QUICK = {"n_clients": 60}


def run(
    dataset_name: str = "hotpotqa",
    n_clients: int = 120,
    n_facts: int = 4,
    spread: float = 1.0,
    rate_limit_per_minute: int | None = 100,
    seed: int = 0,
) -> ExperimentResult:
    """One row per coalescing setting over the same flash crowd."""
    result = ExperimentResult(
        name="Miss coalescing: flash crowd on uncached facts",
        notes=(
            "n queries for k fresh facts land within ~1 s of a cold cache; "
            "coalescing collapses the herd to ~k remote fetches."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    rng = np.random.default_rng(derive_seed(seed, "flash-crowd"))
    arrivals = []
    for index in range(n_clients):
        fact = dataset.universe.by_rank(index % n_facts)
        variant = int(rng.integers(dataset.paraphraser.variants))
        at = float(rng.uniform(0.0, spread))
        arrivals.append((at, dataset.query_for(fact, variant)))
    arrivals.sort(key=lambda pair: pair[0])

    for coalesce in (False, True):
        remote = build_remote(
            dataset.universe, rate_limit_per_minute=rate_limit_per_minute,
            seed=seed,
        )
        engine = build_asteria_engine(
            remote,
            AsteriaConfig(coalesce_misses=coalesce),
            seed=seed,
        )
        sim = Simulator()
        responses = run_open_loop(sim, engine, arrivals)
        latencies = sorted(response.latency for response in responses)
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
        result.add_row(
            coalescing="on" if coalesce else "off",
            facts=n_facts,
            api_calls=remote.calls,
            coalesced=engine.metrics.coalesced_misses,
            mean_latency_s=round(sum(latencies) / len(latencies), 4),
            p99_latency_s=round(p99, 4),
            retries=remote.retries,
            api_cost_usd=round(remote.cost_meter.api_cost, 4),
        )
    return result


@claims
def check(result: ExperimentResult):
    off = result.row(coalescing="off")
    on = result.row(coalescing="on")
    yield "<= 2 calls per fact", on["api_calls"] <= 2 * on["facts"]
    yield "< 0.25x the calls", on["api_calls"] < 0.25 * off["api_calls"]
    yield "followers were coalesced", on["coalesced"] > 0
    yield "no slower", on["mean_latency_s"] <= off["mean_latency_s"] * 1.05
    yield "less API spend", on["api_cost_usd"] < off["api_cost_usd"]
