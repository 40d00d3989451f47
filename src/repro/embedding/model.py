"""Embedding models: the protocol and the deterministic hashing substitute.

See the package docstring for why a hashing embedder is a faithful stand-in
for the paper's Qwen3-Embedding-0.6B at the *system* level.

The hashing embedder is a hot path (every cache lookup embeds its query), so
it is built for vectorized execution: token directions live in one growable
``(tokens, dim)`` matrix, each text reduces to a cached ``(rows, weights)``
feature pair, and the batch entry point
:meth:`HashingEmbedder.embed_batch` computes a whole batch of embeddings as
one sparse matrix product over the token directions. The scalar
:meth:`HashingEmbedder.embed` is the one-row case of the same code path, so
batch and scalar results agree to float32 summation order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.sim.random import derive_seed
from repro.embedding.tokenizer import SimpleTokenizer

try:  # pragma: no cover - exercised implicitly on scipy-equipped hosts
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = getattr(_scipy_sparsetools, "csr_matvecs", None)
except ImportError:  # pragma: no cover
    _csr_matvecs = None


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

    Token directions are stored as rows of one growable matrix and each
    text's tokenisation is memoised as ``(row_indices, weights)`` arrays, so
    an embedding is a single gather + weighted reduction instead of a
    per-token Python loop.

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

    #: Memoised (rows, weights) feature pairs kept per embedder.
    FEATURE_CACHE_MAX = 65536

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
        #: text -> (row indices, weights), LRU-bounded
        self._features: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )

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
        """Memoised (row indices, weights) of ``text``'s weighted features."""
        cached = self._features.get(text)
        if cached is not None:
            self._features.move_to_end(text)
            return cached
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
        # int32 rows double as CSR indices in embed_batch's sparse product.
        features = (
            np.asarray(rows, dtype=np.int32),
            np.asarray(weights, dtype=np.float32),
        )
        self._features[text] = features
        if len(self._features) > self.FEATURE_CACHE_MAX:
            self._features.popitem(last=False)
        return features

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text``; empty/stopword-only text returns a zero vector."""
        return self.embed_batch((text,))[0]

    def embed_batch(self, texts: Iterable[str]) -> np.ndarray:
        """Embed many texts into an (n, dim) float32 array.

        The whole batch is one sparse-matrix product: each text is a CSR row
        of feature weights over the token-direction matrix, multiplied
        through scipy's ``csr_matvecs`` kernel (falling back to a dense
        coefficient GEMM when scipy is absent), then row-normalised.
        Results match :meth:`embed` up to float32 summation order.
        """
        features = [self._features_for(text) for text in texts]
        n = len(features)
        out = np.zeros((n, self._dim), dtype=np.float32)
        if n == 0:
            return out
        if n == 1:
            # Scalar fast path: skip the CSR assembly.
            rows, weights = features[0]
            if rows.size:
                out[0] = weights @ self._matrix[rows]
                norm = np.sqrt(np.sum(np.square(out[0])))
                if norm > 0:
                    out[0] /= norm
            return out
        lengths = np.fromiter(
            (rows.size for rows, _ in features), count=n, dtype=np.int32
        )
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        if indptr[-1]:
            rows = np.concatenate([f[0] for f in features])
            weights = np.concatenate([f[1] for f in features])
            if _csr_matvecs is not None:
                tokens = len(self._token_rows)
                _csr_matvecs(
                    n,
                    tokens,
                    self._dim,
                    indptr,
                    rows,
                    weights,
                    self._matrix[:tokens].ravel(),
                    out.ravel(),
                )
            else:
                unique_rows, inverse = np.unique(rows, return_inverse=True)
                segments = np.repeat(np.arange(n, dtype=np.intp), lengths)
                coefficients = np.zeros(
                    (n, unique_rows.size), dtype=np.float32
                )
                # add.at, not assignment: a token can repeat within one text.
                np.add.at(coefficients, (segments, inverse), weights)
                out[:] = coefficients @ self._matrix[unique_rows]
        norms = np.sqrt(np.sum(np.square(out), axis=1, keepdims=True))
        np.divide(out, norms, out=out, where=norms > 0)
        return out

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
