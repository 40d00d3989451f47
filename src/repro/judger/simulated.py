"""A calibrated noisy-oracle judger.

Given the workload's hidden fact identity for both sides of a pair, the
simulated judger knows the true answer but reports it imperfectly:

* equivalent pairs score ``Beta(pos_alpha, pos_beta)`` — concentrated near 1;
* non-equivalent pairs score ``Beta(neg_alpha, neg_beta)`` — near 0;
* with probability ``flip_rate`` the pair draws from the *opposite*
  distribution, modelling genuine model confusions that no threshold fixes.

With the defaults, a threshold of 0.9 accepts ≈97 % of equivalent pairs and
≈2 % of non-equivalent ones — in line with the paper's observation that the
judger keeps accuracy "virtually identical" to the non-cached baseline while
sustaining >85 % hit rates.

Scores are deterministic per (query, cached_query) pair: the Beta draw is
seeded from the pair's content, so repeated validations of the same pair
agree (a real model is likewise deterministic at temperature 0).
"""

from __future__ import annotations

import numpy as np

from repro.judger.base import JudgeRequest, JudgeVerdict
from repro.sim.random import derive_seed


#: The two ``detail`` dicts every verdict shares (read-only, like all
#: :attr:`JudgeVerdict.detail`).
_FLIPPED = {"flipped": True}
_KEPT = {"flipped": False}


class SimulatedJudger:
    """Noisy-oracle LSM; see module docstring.

    Parameters
    ----------
    seed:
        Root seed; per-pair draws derive from it.
    flip_rate:
        Probability of drawing from the wrong score distribution
        (default 0.02).
    pos_alpha, pos_beta:
        Beta parameters for equivalent pairs (default 30, 0.4).
    neg_alpha, neg_beta:
        Beta parameters for non-equivalent pairs (default 0.8, 20).
    unknown_truth_score:
        Score reported for a pair lacking ground truth when ``fallback`` is
        None; defaults to 0.0 (reject) — the safe choice for a cache.
    fallback:
        Judger consulted for pairs with no ground-truth annotation (queries
        arriving through the data client from raw text). Defaults to a
        lexical :class:`~repro.judger.heuristic.HeuristicJudger` — a real
        LSM reads text, so unannotated pairs should not be blanket-rejected.
        Pass None to restore strict reject-unknown behaviour.
    """

    def __init__(
        self,
        seed: int = 0,
        flip_rate: float = 0.02,
        pos_alpha: float = 30.0,
        pos_beta: float = 0.4,
        neg_alpha: float = 0.8,
        neg_beta: float = 20.0,
        unknown_truth_score: float = 0.0,
        fallback: "object | None" = "heuristic",
    ) -> None:
        if not 0.0 <= flip_rate <= 1.0:
            raise ValueError(f"flip_rate must be in [0, 1], got {flip_rate}")
        for name, value in (
            ("pos_alpha", pos_alpha),
            ("pos_beta", pos_beta),
            ("neg_alpha", neg_alpha),
            ("neg_beta", neg_beta),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.seed = seed
        self.flip_rate = flip_rate
        self.pos_alpha = pos_alpha
        self.pos_beta = pos_beta
        self.neg_alpha = neg_alpha
        self.neg_beta = neg_beta
        self.unknown_truth_score = unknown_truth_score
        if fallback == "heuristic":
            from repro.judger.heuristic import HeuristicJudger

            fallback = HeuristicJudger()
        self.fallback = fallback
        self.calls = 0

    @property
    def params(self) -> tuple:
        """Everything a verdict depends on besides its request."""
        fallback = self.fallback
        return (
            self.seed,
            self.flip_rate,
            self.pos_alpha,
            self.pos_beta,
            self.neg_alpha,
            self.neg_beta,
            self.unknown_truth_score,
            None if fallback is None else fallback.params,
        )

    def judge(self, request: JudgeRequest) -> JudgeVerdict:
        """Score one pair; deterministic per (query, cached_query) content."""
        self.calls += 1
        if request.query_truth is None or request.cached_truth is None:
            if self.fallback is not None:
                return self.fallback.judge(request)
            return JudgeVerdict(score=self.unknown_truth_score, truth=None)
        equivalent = request.query_truth == request.cached_truth
        rng = np.random.default_rng(
            derive_seed(self.seed, f"{request.query_text}\x1f{request.cached_query}")
        )
        flipped = bool(rng.random() < self.flip_rate)
        draw_positive = equivalent != flipped
        if draw_positive:
            score = float(rng.beta(self.pos_alpha, self.pos_beta))
        else:
            score = float(rng.beta(self.neg_alpha, self.neg_beta))
        return JudgeVerdict(
            score=score, truth=equivalent, detail=_FLIPPED if flipped else _KEPT
        )

    def __repr__(self) -> str:
        return (
            f"SimulatedJudger(seed={self.seed}, flip_rate={self.flip_rate}, "
            f"calls={self.calls})"
        )
