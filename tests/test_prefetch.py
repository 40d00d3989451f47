"""Tests for the Markov model and prefetcher (Algorithm 3)."""

import pytest

from repro.core import MarkovModel, MarkovPrefetcher, Query, QuerySignature


def sig(text, fact=None):
    return QuerySignature(text=text, fact_id=fact)


class TestQuerySignature:
    def test_roundtrip_to_query(self):
        query = Query("height of everest", fact_id="F", staticity=9, cost=0.02)
        signature = QuerySignature.of(query)
        rebuilt = signature.to_query()
        assert rebuilt.text == query.text
        assert rebuilt.fact_id == query.fact_id
        assert rebuilt.staticity == query.staticity
        assert rebuilt.cost == query.cost

    def test_hashable(self):
        assert sig("a") == sig("a")
        assert len({sig("a"), sig("a"), sig("b")}) == 2


class TestMarkovModel:
    def test_no_predictions_below_support(self):
        model = MarkovModel(min_support=2)
        model.record(sig("a"), sig("b"))
        assert model.predict(sig("a")) == []

    def test_predictions_after_support(self):
        model = MarkovModel(min_support=2)
        model.record(sig("a"), sig("b"))
        model.record(sig("a"), sig("b"))
        predictions = model.predict(sig("a"))
        assert predictions == [(sig("b"), 1.0)]

    def test_probabilities_normalised(self):
        model = MarkovModel(min_support=1)
        model.record(sig("a"), sig("b"))
        model.record(sig("a"), sig("b"))
        model.record(sig("a"), sig("c"))
        predictions = dict(model.predict(sig("a")))
        assert predictions[sig("b")] == pytest.approx(2 / 3)
        assert predictions[sig("c")] == pytest.approx(1 / 3)
        assert sum(predictions.values()) == pytest.approx(1.0)

    def test_most_likely_first(self):
        model = MarkovModel(min_support=1)
        for _ in range(3):
            model.record(sig("a"), sig("b"))
        model.record(sig("a"), sig("c"))
        assert model.predict(sig("a"))[0][0] == sig("b")

    def test_self_loops_ignored(self):
        model = MarkovModel(min_support=1)
        model.record(sig("a"), sig("a"))
        assert model.predict(sig("a")) == []
        assert model.states == 0

    def test_unknown_state_empty(self):
        assert MarkovModel().predict(sig("never seen")) == []

    def test_invalid_support_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel(min_support=0)


class TestMarkovPrefetcher:
    def test_learns_repeated_transition(self):
        prefetcher = MarkovPrefetcher(confidence=0.5, max_per_event=2)
        a = Query("alpha topic", fact_id="A")
        b = Query("beta topic", fact_id="B")
        # Two passes of a -> b build support; the third observation of `a`
        # should predict `b`.
        for _ in range(2):
            prefetcher.observe(a)
            prefetcher.observe(b)
        targets = prefetcher.observe(a)
        assert [t.fact_id for t in targets] == ["B"]

    def test_low_confidence_transitions_ignored(self):
        prefetcher = MarkovPrefetcher(confidence=0.9)
        a = Query("alpha topic", fact_id="A")
        successors = [Query(f"succ {i}", fact_id=f"S{i}") for i in range(4)]
        for successor in successors:
            prefetcher.observe(a)
            prefetcher.observe(successor)
        # Each successor has probability 0.25 < 0.9.
        assert prefetcher.observe(a) == []

    def test_max_per_event_bounds_targets(self):
        prefetcher = MarkovPrefetcher(confidence=0.0, max_per_event=1)
        a = Query("alpha topic", fact_id="A")
        b = Query("beta topic", fact_id="B")
        c = Query("gamma topic", fact_id="C")
        for successor in (b, c, b):
            prefetcher.observe(a)
            prefetcher.observe(successor)
        targets = prefetcher.observe(a)
        assert len(targets) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MarkovPrefetcher(confidence=1.5)
        with pytest.raises(ValueError):
            MarkovPrefetcher(max_per_event=0)
