"""Tests for the Sine two-stage retrieval index."""

import pytest

from repro.ann import FlatIndex
from repro.core import Query, Sine
from repro.core.cache import AsteriaCache
from repro.core.types import FetchResult
from repro.embedding import HashingEmbedder
from repro.judger import SimulatedJudger


def fetch(result="answer", latency=0.4, cost=0.005):
    return FetchResult(
        result=result, latency=latency, service_latency=latency, cost=cost,
        size_tokens=16,
    )


@pytest.fixture
def stack():
    embedder = HashingEmbedder(seed=7)
    sine = Sine(
        embedder,
        FlatIndex(embedder.dim),
        SimulatedJudger(seed=3),
        tau_sim=0.7,
        tau_lsm=0.9,
    )
    cache = AsteriaCache(sine)
    return sine, cache


class TestSineRetrieval:
    def test_empty_index_no_match(self, stack):
        sine, cache = stack
        result = sine.retrieve(Query("anything", fact_id="F"), cache.elements)
        assert result.match is None
        assert result.ann_considered == 0

    def test_paraphrase_matches(self, stack):
        sine, cache = stack
        cache.insert(Query("who painted the mona lisa", fact_id="F1"), fetch(), 0.0)
        result = sine.retrieve(
            Query("tell me who painted mona lisa please", fact_id="F1"),
            cache.elements,
        )
        assert result.match is not None
        assert result.match.truth_key == "F1"
        assert result.judged >= 1

    def test_unrelated_query_filtered_by_ann(self, stack):
        sine, cache = stack
        cache.insert(Query("who painted the mona lisa", fact_id="F1"), fetch(), 0.0)
        result = sine.retrieve(
            Query("current weather in paris", fact_id="F2"), cache.elements
        )
        assert result.match is None
        assert result.candidates == []
        # ANN was consulted but nothing cleared tau_sim: no judging needed.
        assert result.judged == 0

    def test_confusable_rejected_by_judger(self, stack):
        sine, cache = stack
        cache.insert(Query("who won the world cup 2018", fact_id="F:2018"), fetch(), 0.0)
        result = sine.retrieve(
            Query("who won the world cup 2022", fact_id="F:2022"), cache.elements
        )
        # Similar enough to be a candidate, but the judger must reject it.
        assert result.candidates, "expected the confusable to pass the coarse filter"
        assert result.match is None

    def test_ann_only_accepts_confusable(self, stack):
        sine, cache = stack
        cache.insert(Query("who won the world cup 2018", fact_id="F:2018"), fetch(), 0.0)
        result = sine.retrieve(
            Query("who won the world cup 2022", fact_id="F:2022"),
            cache.elements,
            match="ann_only",
        )
        assert result.match is not None  # The strawman's false positive.
        assert result.judged == 0

    def test_tau_sim_raised_blocks_candidates(self, stack):
        sine, cache = stack
        cache.insert(Query("who painted the mona lisa", fact_id="F1"), fetch(), 0.0)
        sine.tau_sim = 0.999
        result = sine.retrieve(
            Query("mona lisa painter please", fact_id="F1"), cache.elements
        )
        assert result.match is None
        assert result.candidates == []

    def test_tau_lsm_one_rejects_everything(self, stack):
        sine, cache = stack
        cache.insert(Query("who painted the mona lisa", fact_id="F1"), fetch(), 0.0)
        sine.tau_lsm = 1.0
        result = sine.retrieve(
            Query("who painted the mona lisa", fact_id="F1"), cache.elements
        )
        assert result.match is None
        assert result.judged >= 1

    def test_remove_unindexes(self, stack):
        sine, cache = stack
        element = cache.insert(Query("unique query text", fact_id="F"), fetch(), 0.0)
        cache.remove(element.element_id)
        result = sine.retrieve(Query("unique query text", fact_id="F"), cache.elements)
        assert result.match is None

    def test_candidates_for_stage_one_only(self, stack):
        sine, cache = stack
        cache.insert(Query("height of mount everest", fact_id="F"), fetch(), 0.0)
        hits = sine.candidates_for(Query("mount everest height", fact_id="F"))
        assert hits and hits[0].score >= sine.tau_sim

    def test_invalid_thresholds_rejected(self, stack):
        sine, _ = stack
        embedder = sine.embedder
        with pytest.raises(ValueError):
            Sine(embedder, FlatIndex(embedder.dim), sine.judger, tau_sim=1.5)
        with pytest.raises(ValueError):
            Sine(embedder, FlatIndex(embedder.dim), sine.judger, max_candidates=0)

    def test_one_candidate_is_enough(self, stack):
        sine, cache = stack
        cache.insert(Query("who painted the mona lisa", fact_id="F1"), fetch(), 0.0)
        cache.insert(Query("who painted the last supper", fact_id="F2"), fetch(), 0.0)
        single = Sine(sine.embedder, sine.index, sine.judger, max_candidates=1)
        query = Query("who painted the mona lisa", fact_id="F1")
        result = single.retrieve(query, cache.elements)
        assert result.match is not None and result.match.truth_key == "F1"
        assert result.ann_considered == 1 and len(result.candidates) == 1


class TestSineRecall:
    def test_a_replay_counts_the_rows_a_scan_would(self, stack, monkeypatch):
        """Recorded while the index held fewer rows than ``max_candidates``,
        replayed after it grew past them: ``ann_considered`` follows the
        index, as the full path's does."""
        sine, cache = stack
        query = Query("who painted the mona lisa", fact_id="F1")
        cache.insert(query, fetch(), 0.0)
        recorded = sine.retrieve(query, cache.elements)
        assert recorded.match is not None and recorded.ann_considered == 1
        for step, text in enumerate((
            "current weather in paris", "boiling point of water",
            "speed of light in vacuum", "tallest building in dubai",
            "deepest lake on earth",
        )):
            cache.insert(Query(text, fact_id=f"G{step}"), fetch(), 0.0)
        assert len(sine) > sine.max_candidates
        monkeypatch.setattr(sine.index, "search", None)  # a replay scans nothing
        replayed = sine.retrieve(query, cache.elements)
        monkeypatch.undo()
        sine._recalls.clear()
        sine._named_by.clear()
        walked = sine.retrieve(query, cache.elements)
        assert walked.candidates == recorded.candidates  # the new rows are far below
        assert replayed.ann_considered == walked.ann_considered == sine.max_candidates
        assert replayed == walked
