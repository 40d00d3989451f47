"""Embedding models: the protocol and the deterministic hashing substitute.

See the package docstring for why a hashing embedder is a faithful stand-in
for the paper's Qwen3-Embedding-0.6B at the *system* level.

The hashing embedder is a hot path (every cache lookup that misses the
:class:`CachedEmbedder` memo embeds its query), so it is vectorized: token
directions live in one growable ``(tokens, dim)`` matrix, and
:meth:`HashingEmbedder.embed` reduces a text to ``(rows, weights)`` and
computes its vector as one weighted gather over that matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.sim.random import derive_seed
from repro.embedding.tokenizer import SimpleTokenizer


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors; 0.0 if either is all-zero."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


@runtime_checkable
class EmbeddingModel(Protocol):
    """What the cache needs from an embedding model.

    Implementations must be deterministic for a given input so that cache
    behaviour is reproducible.
    """

    @property
    def dim(self) -> int:
        """Dimensionality of produced embeddings."""
        ...

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm float32 vector of length ``dim``."""
        ...


class HashingEmbedder:
    """Deterministic bag-of-hashed-tokens embedder.

    Each distinct token deterministically seeds a Gaussian direction in
    ``dim`` dimensions. A text's embedding is the weighted sum of its token
    directions (stopwords at ``stopword_weight``, content words at 1.0) plus
    lightly weighted bigram directions for word-order sensitivity, finally
    L2-normalised.

    Token directions are stored as rows of one growable matrix and a text's
    tokenisation becomes ``(row_indices, weights)`` arrays, so an embedding
    is a single gather + weighted reduction instead of a per-token Python
    loop. Repeated texts are memoised one layer up, by :class:`CachedEmbedder`.

    Parameters
    ----------
    dim:
        Embedding dimensionality (default 256).
    seed:
        Root seed for token directions. Two embedders with the same seed and
        dim agree exactly.
    stopword_weight:
        Relative weight of stopword tokens (default 0.15).
    bigram_weight:
        Relative weight of adjacent-token bigram features (default 0.25).
        Set to 0 for a pure bag-of-words model.
    """

    def __init__(
        self,
        dim: int = 256,
        seed: int = 0,
        stopword_weight: float = 0.15,
        bigram_weight: float = 0.25,
        tokenizer: SimpleTokenizer | None = None,
    ) -> None:
        if dim < 8:
            raise ValueError(f"dim must be >= 8 for meaningful similarity, got {dim}")
        if stopword_weight < 0 or bigram_weight < 0:
            raise ValueError("feature weights must be non-negative")
        self._dim = dim
        self.seed = seed
        self.stopword_weight = stopword_weight
        self.bigram_weight = bigram_weight
        self.tokenizer = tokenizer or SimpleTokenizer()
        #: token -> row in the direction matrix
        self._token_rows: dict[str, int] = {}
        self._matrix = np.zeros((256, dim), dtype=np.float32)

    @property
    def dim(self) -> int:
        return self._dim

    def _row_for(self, token: str) -> int:
        row = self._token_rows.get(token)
        if row is None:
            row = len(self._token_rows)
            if row >= self._matrix.shape[0]:
                grown = np.zeros(
                    (self._matrix.shape[0] * 2, self._dim), dtype=np.float32
                )
                grown[: self._matrix.shape[0]] = self._matrix
                self._matrix = grown
            rng = np.random.default_rng(derive_seed(self.seed, f"tok:{token}"))
            vector = rng.standard_normal(self._dim).astype(np.float32)
            vector /= np.linalg.norm(vector)
            self._matrix[row] = vector
            self._token_rows[token] = row
        return row

    def _features_for(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, weights) of ``text``'s weighted features."""
        tokens = self.tokenizer.tokenize(text)
        rows: list[int] = []
        weights: list[float] = []
        for token in tokens:
            weight = (
                self.stopword_weight if self.tokenizer.is_stopword(token) else 1.0
            )
            if weight > 0:
                rows.append(self._row_for(token))
                weights.append(weight)
        if self.bigram_weight > 0:
            content = [t for t in tokens if not self.tokenizer.is_stopword(t)]
            for bigram in self.tokenizer.bigrams(content):
                rows.append(self._row_for(bigram))
                weights.append(self.bigram_weight)
        return (
            np.asarray(rows, dtype=np.int32),
            np.asarray(weights, dtype=np.float32),
        )

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text``; a text with no features (``""``) embeds to zero."""
        rows, weights = self._features_for(text)
        if not rows.size:
            return np.zeros(self._dim, dtype=np.float32)
        vector = weights @ self._matrix[rows]
        norm = np.sqrt(np.sum(np.square(vector)))
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: Iterable[str]) -> np.ndarray:
        """One :meth:`embed` row per text, as an (n, dim) float32 array.

        Kept for the benchmark's self-test, its one caller; nothing in the
        library embeds more than one text at a time.
        """
        rows = [self.embed(text) for text in texts]
        return np.array(rows, dtype=np.float32).reshape(len(rows), self._dim)

    def __repr__(self) -> str:
        return (
            f"HashingEmbedder(dim={self._dim}, seed={self.seed}, "
            f"stopword_weight={self.stopword_weight}, "
            f"bigram_weight={self.bigram_weight})"
        )


class CachedEmbedder:
    """LRU memoisation wrapper around any :class:`EmbeddingModel`.

    Agent workloads re-issue the same surface forms often; memoising keeps
    the simulated embedding cost honest (the engine charges embedding latency
    only on memoisation misses, mirroring a production embedding cache).
    """

    def __init__(self, inner: EmbeddingModel, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.inner = inner
        self.max_entries = max_entries
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def dim(self) -> int:
        return self.inner.dim

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text``, serving repeats from the LRU memo."""
        cached = self._cache.get(text)
        if cached is not None:
            self._cache.move_to_end(text)
            self.hits += 1
            return cached
        self.misses += 1
        vector = self.inner.embed(text)
        self._cache[text] = vector
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return vector

    def __contains__(self, text: str) -> bool:
        return text in self._cache

    def __repr__(self) -> str:
        return (
            f"CachedEmbedder(entries={len(self._cache)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
