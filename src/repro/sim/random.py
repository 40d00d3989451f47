"""Named, reproducible random-number streams.

Every stochastic component in the reproduction (embedder noise, judger noise,
network jitter, workload sampling, ...) draws from its own named stream so
that changing one component's consumption pattern never perturbs another's.
Streams are derived deterministically from a root seed and the stream name.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that similar names yield unrelated seeds and the mapping
    is stable across Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """A factory of independent ``numpy.random.Generator`` streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("workload")
    >>> b = rngs.stream("network")
    >>> a is rngs.stream("workload")   # streams are cached by name
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(derive_seed(self.seed, name))
        return self._streams[name]

    def __repr__(self) -> str:
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
