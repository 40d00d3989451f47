"""What a vector search returns, and the normalisation stored rows share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True, slots=True)
class SearchHit:
    """One search result: an item key and its cosine similarity to the query.

    Ordered by ``(score, key)`` so lists of hits sort deterministically.
    Slotted: lookups allocate several of these per query, so the per-instance
    ``__dict__`` is worth eliding.
    """

    score: float
    key: int


def normalize_batch(vectors: np.ndarray) -> np.ndarray:
    """Row-normalise an (n, dim) matrix to float32; zero rows pass through."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"expected an (n, dim) matrix, got shape {vectors.shape}")
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / np.where(norms == 0, np.float32(1.0), norms)
