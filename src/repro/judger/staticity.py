"""Staticity scoring: how time-invariant is a query-result pair?

The paper reuses the judger model to rate staticity on a 1-10 scale (10 =
stable fact such as "where is the Louvre", 1 = ephemeral such as weather).
The simulated scorer reads the workload's annotated true staticity and adds
bounded integer noise; with no annotation it falls back to a keyword
heuristic over the query text.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.tokenizer import SimpleTokenizer
from repro.sim.random import derive_seed

#: Query stems suggesting ephemeral content, mapped to a low prior.
_EPHEMERAL_MARKERS = frozenset(
    "weather today tonight tomorrow now current latest live price stock score".split()
)
#: Query stems suggesting stable facts, mapped to a high prior.
_STABLE_MARKERS = frozenset(
    "history capital painted author born invented founded located formula".split()
)


class StaticityScorer:
    """Scores staticity 1-10 with ±``noise`` uniform integer jitter.

    Parameters
    ----------
    seed:
        Root seed; per-text draws derive from it, so scoring is
        deterministic per text.
    noise:
        Maximum absolute jitter applied to an annotated true staticity
        (default 1).
    default:
        Score used by the keyword fallback when no marker fires (default 6).
    """

    def __init__(self, seed: int = 0, noise: int = 1, default: int = 6) -> None:
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        if not 1 <= default <= 10:
            raise ValueError(f"default must be in [1, 10], got {default}")
        self.seed = seed
        self.noise = noise
        self.default = default
        self._tokenizer = SimpleTokenizer()

    def score(self, text: str, true_staticity: int | None = None) -> int:
        """Staticity of the query ``text`` on the paper's 1-10 scale."""
        if true_staticity is not None:
            if not 1 <= true_staticity <= 10:
                raise ValueError(
                    f"true_staticity must be in [1, 10], got {true_staticity}"
                )
            if self.noise == 0:
                return true_staticity
            rng = np.random.default_rng(derive_seed(self.seed, f"stat:{text}"))
            jitter = int(rng.integers(-self.noise, self.noise + 1))
            return min(10, max(1, true_staticity + jitter))
        tokens = set(self._tokenizer.tokenize(text))
        if tokens & _EPHEMERAL_MARKERS:
            return 2
        if tokens & _STABLE_MARKERS:
            return 9
        return self.default

    def __repr__(self) -> str:
        return f"StaticityScorer(seed={self.seed}, noise={self.noise})"
