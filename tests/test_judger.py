"""Tests for the simulated and heuristic judgers."""

import pytest

from repro.judger import HeuristicJudger, JudgeRequest, JudgeVerdict, SimulatedJudger


def request(query="q", cached="c", q_truth=None, c_truth=None):
    return JudgeRequest(
        query_text=query,
        cached_query=cached,
        query_truth=q_truth,
        cached_truth=c_truth,
    )


class TestJudgeVerdict:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            JudgeVerdict(score=1.5)
        with pytest.raises(ValueError):
            JudgeVerdict(score=-0.1)


class TestSimulatedJudger:
    def test_equivalent_pairs_score_high(self):
        judger = SimulatedJudger(seed=3)
        accepted = sum(
            judger.judge(request(f"q{i}", f"c{i}", "F", "F")).score >= 0.9
            for i in range(500)
        )
        assert accepted / 500 > 0.93

    def test_different_pairs_score_low(self):
        judger = SimulatedJudger(seed=3)
        accepted = sum(
            judger.judge(request(f"q{i}", f"c{i}", "F1", "F2")).score >= 0.9
            for i in range(500)
        )
        assert accepted / 500 < 0.06

    def test_deterministic_per_pair(self):
        judger = SimulatedJudger(seed=3)
        first = judger.judge(request("same", "pair", "F", "F"))
        second = judger.judge(request("same", "pair", "F", "F"))
        assert first.score == second.score

    def test_truth_recorded(self):
        judger = SimulatedJudger(seed=3)
        assert judger.judge(request(q_truth="F", c_truth="F")).truth is True
        assert judger.judge(request(q_truth="F", c_truth="G")).truth is False

    def test_missing_truth_falls_back_to_lexical(self):
        judger = SimulatedJudger(seed=3)
        paraphrase = request(
            "who painted the mona lisa", "tell me who painted mona lisa"
        )
        assert judger.judge(paraphrase).score > 0.9
        unrelated = request("who painted the mona lisa", "weather in oslo")
        assert judger.judge(unrelated).score < 0.1

    def test_missing_truth_rejects_when_fallback_disabled(self):
        judger = SimulatedJudger(seed=3, fallback=None)
        verdict = judger.judge(request())
        assert verdict.score == 0.0
        assert verdict.truth is None

    def test_zero_flip_rate_perfect_separation(self):
        judger = SimulatedJudger(seed=3, flip_rate=0.0)
        positives = [
            judger.judge(request(f"q{i}", "c", "F", "F")).score for i in range(200)
        ]
        negatives = [
            judger.judge(request(f"q{i}", "c", "F", "G")).score for i in range(200)
        ]
        assert min(positives) > max(negatives)

    def test_full_flip_rate_inverts(self):
        judger = SimulatedJudger(seed=3, flip_rate=1.0)
        scores = [
            judger.judge(request(f"q{i}", "c", "F", "F")).score for i in range(100)
        ]
        assert sum(score < 0.5 for score in scores) > 90

    def test_call_counter(self):
        judger = SimulatedJudger(seed=3)
        judger.judge(request())
        judger.judge(request())
        assert judger.calls == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SimulatedJudger(flip_rate=1.5)
        with pytest.raises(ValueError):
            SimulatedJudger(pos_alpha=0.0)

    def test_same_seed_judgers_score_alike(self):
        first, second = SimulatedJudger(seed=3), SimulatedJudger(seed=3)
        requests = [request(f"q{i}", "c", "F", "F") for i in range(5)]
        assert [first.judge(r).score for r in requests] == [
            second.judge(r).score for r in requests
        ]


class TestHeuristicJudger:
    def test_paraphrase_scores_high(self):
        judger = HeuristicJudger()
        verdict = judger.judge(
            request("who painted the mona lisa", "mona lisa painter")
        )
        assert verdict.score > 0.9

    def test_unrelated_scores_low(self):
        judger = HeuristicJudger()
        verdict = judger.judge(
            request("who painted the mona lisa", "weather in paris today")
        )
        assert verdict.score < 0.1

    def test_overlap_symmetric(self):
        judger = HeuristicJudger()
        assert judger.overlap("a b c", "b c d") == judger.overlap("b c d", "a b c")

    def test_empty_vs_empty_full_overlap(self):
        assert HeuristicJudger().overlap("the of", "a an") == 1.0

    def test_empty_vs_content_no_overlap(self):
        assert HeuristicJudger().overlap("the of", "everest height") == 0.0

    def test_truth_annotation_passthrough(self):
        judger = HeuristicJudger()
        assert judger.judge(request(q_truth="F", c_truth="F")).truth is True
        assert judger.judge(request()).truth is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HeuristicJudger(midpoint=0.0)
        with pytest.raises(ValueError):
            HeuristicJudger(steepness=-1.0)
