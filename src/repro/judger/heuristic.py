"""A model-free lexical judger.

Scores a pair by the Jaccard overlap of content stems, squashed through a
logistic so the output lives on the same [0, 1] confidence scale as the
simulated LSM. It needs no ground-truth annotation, making it the judger of
choice when replaying traces that lack fact identity — at the cost of being
fooled by exactly the surface-similarity failure modes the paper describes.
"""

from __future__ import annotations

import math

from repro.embedding.tokenizer import SimpleTokenizer
from repro.judger.base import JudgeRequest, JudgeVerdict


class HeuristicJudger:
    """Token-overlap judger with a logistic calibration.

    Parameters
    ----------
    midpoint:
        Jaccard overlap that maps to a 0.5 score (default 0.55).
    steepness:
        Logistic slope (default 12.0); higher = more binary.
    """

    def __init__(
        self,
        midpoint: float = 0.55,
        steepness: float = 12.0,
        tokenizer: SimpleTokenizer | None = None,
    ) -> None:
        if not 0.0 < midpoint < 1.0:
            raise ValueError(f"midpoint must be in (0, 1), got {midpoint}")
        if steepness <= 0:
            raise ValueError(f"steepness must be > 0, got {steepness}")
        self.midpoint = midpoint
        self.steepness = steepness
        self.tokenizer = tokenizer or SimpleTokenizer()
        self.calls = 0

    def overlap(self, a: str, b: str) -> float:
        """Jaccard overlap of content stems of ``a`` and ``b``."""
        set_a = set(self.tokenizer.content_tokens(a))
        set_b = set(self.tokenizer.content_tokens(b))
        if not set_a and not set_b:
            return 1.0
        if not set_a or not set_b:
            return 0.0
        return len(set_a & set_b) / len(set_a | set_b)

    def judge(self, request: JudgeRequest) -> JudgeVerdict:
        """Score one pair by logistic-squashed content-stem overlap."""
        self.calls += 1
        overlap = self.overlap(request.query_text, request.cached_query)
        score = 1.0 / (1.0 + math.exp(-self.steepness * (overlap - self.midpoint)))
        truth = None
        if request.query_truth is not None and request.cached_truth is not None:
            truth = request.query_truth == request.cached_truth
        return JudgeVerdict(score=score, truth=truth, detail={"overlap": overlap})

    def __repr__(self) -> str:
        return f"HeuristicJudger(midpoint={self.midpoint}, steepness={self.steepness})"
