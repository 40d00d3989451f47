"""Stage 1 of Sine: the vector index, implemented from scratch.

The paper uses FAISS for its ANN candidate-selection stage. This package
provides the one index every workload here runs:

``FlatIndex``
    Exact brute-force search — one matrix product over the cache's
    embedding arena, recall 1.0 by construction.

It scores by cosine similarity (vectors are normalised on insertion),
supports deletion (caches evict), and is deterministic. DESIGN §12 records
the sweep that found an exact scan the fastest index in the repo at every
size measured.
"""

from repro.ann.base import SearchHit
from repro.ann.flat import FlatIndex

__all__ = ["FlatIndex", "SearchHit"]
