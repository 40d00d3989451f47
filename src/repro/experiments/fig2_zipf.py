"""Figure 2 — Zipfian distribution of search interest.

The paper plots Google Trends topic volumes over 24-hour and 7-day windows
and observes a Zipf pattern: a few head topics dominate. We draw query
volumes from the Zipf(0.99) sampler over a topic universe and report the
head shares plus a fitted log-log slope.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, claims
from repro.sim.random import derive_seed
from repro.workloads.zipf import ZipfSampler

QUICK: dict = {}


def run(
    n_topics: int = 1000,
    window_draws: tuple[tuple[str, int], ...] = (("24h", 20000), ("7d", 120000)),
    zipf_s: float = 0.99,
    seed: int = 0,
    head: int = 5,
) -> ExperimentResult:
    """Topic volumes per time window; top-``head`` topics reported."""
    result = ExperimentResult(
        name="Figure 2: Zipfian search interest by time window",
        notes=(
            "Paper: top-5 topics dominate both the 24-hour and 7-day "
            "windows; long tail of thousands of topics."
        ),
    )
    sampler = ZipfSampler(n_topics, zipf_s)
    for window, draws in window_draws:
        rng = np.random.default_rng(derive_seed(seed, f"fig2:{window}"))
        ranks = sampler.sample_many(rng, draws)
        counts = np.bincount(ranks, minlength=n_topics)
        order = np.argsort(-counts)
        top_volume = int(counts[order[:head]].sum())
        # Fitted slope of log(volume) vs log(rank) over the head 50 topics.
        head_n = min(50, n_topics)
        observed = counts[order[:head_n]].astype(float)
        observed[observed == 0] = 0.5
        slope = float(
            np.polyfit(np.log(np.arange(1, head_n + 1)), np.log(observed), 1)[0]
        )
        for position in range(head):
            result.add_row(
                window=window,
                topic_rank=position + 1,
                volume=int(counts[order[position]]),
                share=round(float(counts[order[position]]) / draws, 4),
            )
        result.add_row(
            window=window,
            topic_rank="top5_total",
            volume=top_volume,
            share=round(top_volume / draws, 4),
            fitted_slope=round(slope, 3),
        )
    return result


@claims
def check(result: ExperimentResult):
    for window in ("24h", "7d"):
        total = result.row(window=window, topic_rank="top5_total")
        first, fifth = (result.row(window=window, topic_rank=k)["volume"] for k in (1, 5))
        yield f"{window}: top-5 share > 0.15", total["share"] > 0.15
        yield f"{window}: slope in (-1.4, -0.6)", -1.4 < total["fitted_slope"] < -0.6
        yield f"{window}: rank 1 > 2x rank 5", first > 2 * fifth
