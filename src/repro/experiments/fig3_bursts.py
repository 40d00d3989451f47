"""Figure 3 — bursty and correlated query patterns.

The paper shows that external events spike a topic's search interest and
drag related topics up with it. We generate a trend trace and report, per
event, the pre-event rate, the peak rate, the burst ratio, and the related
topic's correlated surge.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.harness import ExperimentResult, claims
from repro.workloads.datasets import build_dataset
from repro.workloads.trend import TrendWorkload

QUICK = {"duration": 240.0}


def run(
    dataset_name: str = "hotpotqa",
    duration: float = 600.0,
    base_rate: float = 1.0,
    seed: int = 0,
    window: float = 30.0,
) -> ExperimentResult:
    """Per-event burst and correlation measurements from a trend trace."""
    dataset = build_dataset(dataset_name, seed=seed)
    workload = TrendWorkload(
        dataset, duration=duration, base_rate=base_rate, seed=seed + 1
    )
    arrivals = workload.timed_queries()
    fact_topic = {fact.fact_id: fact.topic for fact in dataset.universe}

    def topic_count(topic: str, start: float, end: float) -> int:
        return sum(
            1
            for at, query in arrivals
            if start <= at < end and fact_topic.get(query.fact_id) == topic
        )

    result = ExperimentResult(
        name="Figure 3: bursty, correlated query patterns",
        notes=(
            "Paper: events (e.g. a model release, a royal succession) cause "
            "sudden spikes and correlated surges in related topics."
        ),
    )
    for index, event in enumerate(workload.events):
        before = topic_count(event.topic, max(0.0, event.start - window), event.start)
        after = topic_count(event.topic, event.start, event.start + window)
        row = {
            "event": index,
            "topic": event.topic,
            "start_s": event.start,
            "queries_before": before,
            "queries_after": after,
            "burst_ratio": round((after + 1) / (before + 1), 2),
        }
        if event.related:
            related_topic = event.related[0][0]
            related_before = topic_count(
                related_topic, max(0.0, event.start - window), event.start
            )
            related_after = topic_count(
                related_topic, event.start, event.start + window
            )
            row["related_topic"] = related_topic
            row["related_burst_ratio"] = round(
                (related_after + 1) / (related_before + 1), 2
            )
        result.add_row(**row)
    totals = Counter(fact_topic.get(query.fact_id) for _, query in arrivals)
    result.notes += f" Total arrivals: {len(arrivals)} across {len(totals)} topics."
    return result


@claims
def check(result: ExperimentResult):
    yield "four events", len(result.rows) == 4
    for event in result.rows:
        yield f"event {event['event']}: burst ratio > 1.5", event["burst_ratio"] > 1.5
        related = event.get("related_burst_ratio", 2.0)
        yield f"event {event['event']}: related burst ratio > 1.0", related > 1.0
