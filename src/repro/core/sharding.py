"""Shard routing for the multi-process tier (§4.4).

The proc tier splits the cache across worker processes, one
:class:`~repro.core.cache.AsteriaCache` each, and the router sends every
query to one of them by :func:`shard_index_for`: a *stable* hash of the
query's content fingerprint (:func:`~repro.core.cache.content_key`).
Every phrasing of a fact that differs in stopword filler, order, case or
spacing shares that key, so a paraphrase lands on the shard its original
was admitted to and N shards hit like one cache at equal total capacity;
routing on the text lost 9 / 17 points at 2 / 4 shards (DESIGN §13).

:data:`ROUTING` names the hash; each persisted shard store records it, so
a layout written under another routing is refused on reopen
(:func:`~repro.store.persist.shard_directory`).
"""

from __future__ import annotations

import zlib

from repro.core.cache import content_key

#: The routing's name, recorded in every persisted shard store.
ROUTING = "content-key-crc32"


def shard_index_for(text: str, n_shards: int) -> int:
    """Stable shard id for ``text``: crc32 of its content key, mod N.

    Phrasings of one fact share the key, so a paraphrase lands on the shard
    holding its original. crc32 (unlike ``hash``) is stable across
    processes and Python versions, so a persisted or distributed deployment
    routes identically everywhere.
    """
    return zlib.crc32(content_key(text).encode("utf-8")) % n_shards
