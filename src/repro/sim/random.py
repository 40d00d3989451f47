"""Named, reproducible random-number streams.

Every stochastic component in the reproduction (embedder noise, judger noise,
network jitter, workload sampling, ...) draws from its own named stream so
that changing one component's consumption pattern never perturbs another's.
Streams are derived deterministically from a root seed and the stream name.
"""

from __future__ import annotations

import hashlib


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so that similar names yield unrelated seeds and the mapping
    is stable across Python versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
