"""Freshness ablation: what the TTL aging mechanism (§4.3) actually buys.

The paper's TTL exists so "even high-cost or frequently accessed items are
periodically refreshed" — i.e. so the cache stops serving *stale* knowledge.
This study makes staleness measurable: volatile facts' authoritative answers
change every ``epoch_period(staticity)`` simulated seconds, and a cache hit
whose stored value no longer matches the current answer is a stale serving.

Three aging configurations replay the same long skewed workload:

* ``no_ttl`` — entries are immortal: maximal hit rate, maximal staleness;
* ``fixed_ttl`` — the paper's user-defined TTL: one knob trades staleness
  against refetch volume for *all* content at once;
* ``staticity_ttl`` — TTL scaled by staticity/10 (our extension of the
  paper's aging discussion): ephemeral entries refresh early, stable ones
  live long — less staleness than ``no_ttl`` *and* fewer refetches than a
  fixed TTL tight enough to match it.
"""

from __future__ import annotations

from repro.core import AsteriaConfig
from repro.experiments.harness import ExperimentResult, claims
from repro.factory import build_asteria_engine, build_remote
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

QUICK = {"n_queries": 500}


def run(
    dataset_name: str = "hotpotqa",
    cache_ratio: float = 0.6,
    n_queries: int = 1500,
    think_time: float = 1.2,
    fixed_ttl: float = 600.0,
    seed: int = 0,
) -> ExperimentResult:
    """One row per aging configuration.

    ``think_time`` stretches the trace over enough simulated time
    (~n_queries * (think + service) seconds) for volatile facts to flip
    epochs repeatedly.
    """
    result = ExperimentResult(
        name="Freshness study: TTL aging vs stale servings",
        notes=(
            "Staleness = cache hits whose value no longer matches the "
            "source of truth. The paper's TTL bounds it; staticity-scaled "
            "TTL bounds it cheaper."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    capacity = dataset.capacity_for(cache_ratio)
    configurations = (
        ("no_ttl", None, False),
        ("fixed_ttl", fixed_ttl, False),
        ("staticity_ttl", fixed_ttl, True),
    )
    for label, ttl, scaled in configurations:
        remote = build_remote(dataset.universe, seed=seed)
        remote.time_resolver = dataset.universe.time_resolver()
        config = AsteriaConfig(
            capacity_items=capacity,
            default_ttl=ttl,
            staticity_ttl_scaling=scaled,
        )
        engine = build_asteria_engine(remote, config, seed=seed)
        workload = SkewedWorkload(dataset, seed=seed + 1)
        now = 0.0
        stale = 0
        hits = 0
        for query in workload.queries(n_queries):
            response = engine.handle(query, now)
            if response.served_from_cache:
                hits += 1
                current = dataset.universe.resolve_at(query, now)
                if response.result != current:
                    stale += 1
            now += response.latency + think_time
        result.add_row(
            aging=label,
            hit_rate=round(engine.metrics.hit_rate, 4),
            stale_serve_rate=round(stale / hits if hits else 0.0, 4),
            stale_servings=stale,
            api_calls=remote.calls,
            expirations=engine.metrics.expirations,
            horizon_s=round(now, 1),
        )
    return result


@claims
def check(result: ExperimentResult):
    no_ttl, fixed, scaled = (
        result.row(aging=aging) for aging in ("no_ttl", "fixed_ttl", "staticity_ttl")
    )
    stale, calls = "stale_serve_rate", "api_calls"
    yield "no TTL serves the most stale knowledge", no_ttl[stale] > fixed[stale]
    yield "staticity TTL < 0.6x as stale as fixed", scaled[stale] < 0.6 * fixed[stale]
    yield "refetches rise with freshness", no_ttl[calls] <= fixed[calls] <= scaled[calls]
    yield "staticity TTL refetches < 3x fixed", scaled[calls] < 3 * fixed[calls]
    yield "staticity TTL hit rate > 0.7", scaled["hit_rate"] > 0.7
