"""Self-tests of the benchmark: its inputs, its arithmetic, its repeatability.

Run with ``python -m pytest benchmarks/cortexbench -q`` (about a minute; the
process-level tests run real smoke-sized children). Not collected by tier-1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from benchmarks.cortexbench import child, gen, measure, spec
from benchmarks.cortexbench.__main__ import run_child
from benchmarks.cortexbench.trace import Spans
from repro.core.config import DEFAULT_TAU_SIM
from repro.embedding import HashingEmbedder
from repro.workloads import Paraphraser

SMOKE_SECONDS = 12.0


# -- the contract file and the code agree ----------------------------------------
def test_benchmark_json_names_what_the_code_measures():
    with open(spec.ROOT / "BENCHMARK.json") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        spec.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        spec.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert doc["paths"] == ["benchmarks/cortexbench"]


def test_counts_keep_whole_windows_and_scale_together():
    for workload in spec.WORKLOADS:
        full = spec.counts_for(workload, 30, smoke=False)
        assert (full.warm, full.timed) == (workload.warm, workload.timed)
        half = spec.counts_for(workload, 15, smoke=False)
        assert half.timed == half.windows * spec.WINDOW
        assert half.warm == workload.warm // 2
        assert half.traced + half.profiled <= half.timed


# -- generated inputs ---------------------------------------------------------------
@pytest.fixture(scope="module")
def universe():
    return gen.build_universe("t", 400, seed=5)


def _embed_all(fact) -> np.ndarray:
    return HashingEmbedder(seed=9).embed_batch(Paraphraser().all_phrases(fact.core))


def test_paraphrases_of_one_fact_pass_the_coarse_filter(universe):
    for rank in range(0, len(universe), 40):
        vectors = _embed_all(universe.by_rank(rank))
        assert (vectors @ vectors.T).min() >= DEFAULT_TAU_SIM


def test_unrelated_facts_stay_below_the_coarse_filter(universe):
    plain = [fact for fact in universe if fact.confusable_group is None][:12]
    vectors = [_embed_all(fact) for fact in plain]
    for i in range(len(plain)):
        for j in range(i + 1, len(plain)):
            assert (vectors[i] @ vectors[j].T).max() < DEFAULT_TAU_SIM


def test_confusable_pairs_sit_between_the_filter_and_identity(universe):
    groups: dict[str, list] = {}
    for fact in universe:
        if fact.confusable_group is not None:
            groups.setdefault(fact.confusable_group, []).append(fact)
    assert len(groups) == int(400 * gen.CONFUSABLE_FRACTION / 2)
    for first, second in list(groups.values())[:10]:
        scores = _embed_all(first) @ _embed_all(second).T
        # Token directions are random, not orthogonal: a reversed paraphrase
        # under heavy filler can dip a little under the filter.
        assert np.quantile(scores, 0.01) >= DEFAULT_TAU_SIM
        assert scores.max() < 0.999
        assert first.answer != second.answer


def test_stream_is_seeded_and_popularity_is_the_same_for_every_seed(universe):
    one = gen.build_stream(universe, 0.99, 3_000, seed=1)
    again = gen.build_stream(universe, 0.99, 3_000, seed=1)
    other = gen.build_stream(universe, 0.99, 3_000, seed=2)
    assert [q.text for q in one] == [q.text for q in again]
    assert [q.text for q in one] != [q.text for q in other]
    # Stratified draws: only the two slices at a fact's CDF edges are random.
    asked, asked_other = (Counter(q.fact_id for q in stream) for stream in (one, other))
    assert all(abs(asked[f] - asked_other[f]) <= 2 for f in asked | asked_other)
    top = sum(q.fact_id == universe.by_rank(0).fact_id for q in one)
    last = sum(q.fact_id == universe.by_rank(399).fact_id for q in one)
    assert top > 100 * max(last, 1)


def test_every_fact_has_its_own_answer(universe):
    answers = gen.authoritative_answers(universe)
    assert len(set(answers.values())) == len(universe)


# -- arithmetic ---------------------------------------------------------------------
def test_quiet_window_estimator_ignores_a_slowed_window():
    rng = np.random.default_rng(0)
    latencies = rng.uniform(0.9e-3, 1.1e-3, size=20 * 100)
    wall = np.arange(21) * 0.1
    cpu = np.arange(21) * 0.08
    quiet, _ = measure.window_metrics(latencies, wall, cpu)
    latencies[300:400] *= 5  # a neighbour's burst during window 3
    wall[4:] += 0.4
    burst, info = measure.window_metrics(latencies, wall, cpu)
    assert burst["rps"] == pytest.approx(quiet["rps"])
    assert burst["p50_ms"] == pytest.approx(quiet["p50_ms"], rel=0.02)
    assert info["mean_rps"] < 0.9 * quiet["rps"]
    assert len(info["windows"]["rps"]) == 20


def test_self_time_is_duration_minus_children_and_never_negative():
    spans = Spans()

    def leaf():
        time.sleep(0.002)

    inner = spans.wrap("inner", leaf)

    def outer():
        inner()
        inner()

    spans.wrap("outer", outer)()
    summary = spans.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self"] >= 0 and summary["outer"]["min_self"] == 0
    assert summary["outer"]["total"] == pytest.approx(
        summary["outer"]["self"] + summary["inner"]["total"]
    )
    assert spans.leaf_seconds() == pytest.approx(summary["inner"]["total"])
    assert [row[3] for row in spans.rows] == [-1, 0, 0]


def test_reply_check_names_every_kind_of_bad_reply(universe):
    answers = gen.authoritative_answers(universe)
    asked, unasked = universe.by_rank(0), universe.by_rank(1)
    query = gen.query_for(asked, Paraphraser(), 0)
    inputs = child.Inputs(universe, answers, [], [], [query] * 5, [answers[asked.fact_id]] * 5)
    odd = [
        (0, "ProcTransportError: connection lost"),
        (1, {"status": "overloaded", "result": None}),
        (2, {"status": "ok", "result": "no such answer"}),
        (3, {"status": "ok", "result": answers[unasked.fact_id]}),
    ]
    phase = child.Phase(np.zeros(5), np.zeros(2), np.zeros(2), odd)
    checked = child.check_replies(inputs, phase, 5)
    assert checked["failed"] == 2 and checked["wrong_answers"] == 2
    assert checked["served_fraction"] == pytest.approx(3 / 5)
    assert checked["precision"] == pytest.approx(1 / 3)
    assert len(checked["problems"]) == 4
    assert "never sent" in checked["problems"][3]


# -- whole runs, smoke-sized --------------------------------------------------------
EXACT = ("hit_rate", "remote_calls_per_req", "precision", "served_fraction")
#: Per-layer metrics that are counts or ratios of counts: no clock in them.
EXACT_LAYER = [name for name, unit, _ in spec.PER_LAYER if unit == "count"] + [
    "embedding.cache_hit_ratio", "judger.accept_ratio", "core.cache.evictions_per_insert",
]


@pytest.mark.parametrize("workload", ["para_sync", "bigindex_sync"])
def test_same_seed_repeats_every_count_exactly(workload):
    first = [run_child(workload, 7, SMOKE_SECONDS, trace, smoke=True) for trace in (0, 1)]
    second = [run_child(workload, 7, SMOKE_SECONDS, trace, smoke=True) for trace in (0, 1)]
    other = run_child(workload, 8, SMOKE_SECONDS, 0, smoke=True)
    assert all(result["correct"] for result in first + second + [other])
    for name in EXACT:
        assert first[0]["metrics"][name] == second[0]["metrics"][name]
    for name in EXACT_LAYER:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name
    assert set(first[0]["metrics"]) == {name for name, _, _ in spec.END_TO_END}
    assert set(first[1]["metrics"]) == {name for name, _, _ in spec.PER_LAYER}
    assert first[1]["metrics"]["core.engine.py_calls_per_req"] > 0
    assert 0 < first[1]["metrics"]["core.engine.attributed_share"] <= 1
    assert other["metrics"]["setup_s"] > 0


def test_socket_workload_serves_everything_and_leaves_no_process():
    results = [run_child("para_socket", 3, SMOKE_SECONDS, trace, smoke=True) for trace in (0, 1)]
    for result in results:
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
    layer = results[1]["metrics"]
    assert 1 <= layer["serving.proc.ipc_roundtrips_per_req"] <= 2
    assert layer["serving.proc.front_door_us"] > 0
    assert 0 < layer["core.engine.attributed_share"] <= 1
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    assert "benchmarks.cortexbench.launcher" not in listing


def test_command_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        spec.PACKAGE_DIR, tmp_path / "benchmarks" / "cortexbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.cortexbench", "--workload", "para_sync",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
