"""The lightweight semantic judger (LSM) substrate.

The paper validates ANN candidates with a ~0.6B-parameter LLM
(Qwen3-Reranker-0.6B) that scores whether a cached result truly answers a new
query. Offline we substitute :class:`SimulatedJudger`: an oracle over the
workload's hidden fact identity, emitting *calibrated, noisy* confidence
scores — equivalent pairs draw from a Beta distribution concentrated near 1,
non-equivalent pairs near 0, and a small flip probability models genuine
judger mistakes. This preserves everything the system design interacts with:
a continuous score, a decision threshold, a precision/recall trade-off, and a
residual error rate that recalibration (Algorithm 1) must manage.

:class:`HeuristicJudger` is a model-free lexical alternative (token-overlap
logistic), useful as a drop-in when no ground truth annotation exists.
"""

from repro.judger.base import JudgeRequest, Judger, JudgeVerdict
from repro.judger.heuristic import HeuristicJudger
from repro.judger.simulated import SimulatedJudger
from repro.judger.staticity import StaticityScorer

__all__ = [
    "HeuristicJudger",
    "JudgeRequest",
    "JudgeVerdict",
    "Judger",
    "SimulatedJudger",
    "StaticityScorer",
]
