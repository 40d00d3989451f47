"""Workload substrate: synthetic fact universes and the paper's traffic shapes.

Public datasets (HotpotQA, Musique, 2Wiki, Zilliz-GPT, SWE-bench/sqlfluff)
and Google Trends traces are unavailable offline, so this package generates
synthetic equivalents whose *access patterns* match the paper's §2.3
measurements: Zipf(0.99) popularity with paraphrase multiplicity and
confusable pairs for search; bursty, topic-correlated spikes for trends; and
the Table-2 file-access skew for SWE-bench-style coding.

Layers
------
``Fact`` / ``FactUniverse``
    The knowledge world: each fact has a content core, an authoritative
    answer, a topic, staticity, and (optionally heterogeneous) retrieval
    cost/latency. The universe doubles as the remote service's resolver.
``Paraphraser``
    Deterministic surface forms per fact — same content stems, different
    filler/order — so semantically equivalent queries are textually distinct
    (what defeats exact caches) yet embed nearby.
``QADataset`` builders
    Four search datasets plus a StrategyQA-like accuracy set, with
    per-dataset size/ambiguity/EM profiles.
``SkewedWorkload`` / ``TrendWorkload`` / ``SWEBenchWorkload``
    Query streams and agent-task scripts for Figures 7-10, 8, and 9.
``replay``
    Closed-loop and open-loop drivers over any engine.
"""

from repro.workloads.datasets import (
    DATASET_NAMES,
    QADataset,
    build_dataset,
)
from repro.workloads.facts import Fact, FactUniverse
from repro.workloads.paraphrase import Paraphraser
from repro.workloads.replay import (
    run_closed_loop,
    run_open_loop,
    run_task_closed_loop,
    run_task_concurrent,
)
from repro.workloads.swebench import SWEBenchWorkload, TABLE2_ACCESS_FREQUENCIES
from repro.workloads.trend import TrendEvent, TrendWorkload
from repro.workloads.zipf import ZipfSampler
from repro.workloads.skewed import SkewedWorkload

__all__ = [
    "DATASET_NAMES",
    "Fact",
    "FactUniverse",
    "Paraphraser",
    "QADataset",
    "SWEBenchWorkload",
    "SkewedWorkload",
    "TABLE2_ACCESS_FREQUENCIES",
    "TrendEvent",
    "TrendWorkload",
    "ZipfSampler",
    "build_dataset",
    "run_closed_loop",
    "run_open_loop",
    "run_task_closed_loop",
    "run_task_concurrent",
]
