"""`repro.store` — pluggable cache backends, durability, and replication.

The fifth subsystem alongside ``core``/``serving``/``obs``/``network``:

* :mod:`repro.store.backend` — the :class:`CacheBackend` protocol and the
  in-process dict/arena implementation every engine constructs through.
* :mod:`repro.store.journal` — append-only JSONL WAL with fsync batching
  and idempotent replay.
* :mod:`repro.store.persist` — snapshot + journal durability
  (:class:`PersistentStore`) behind ``--persist DIR``.
* :mod:`repro.store.replication` — cross-region diff exchange with
  last-writer-wins conflict resolution over the frame protocol.

Only the backend protocol is imported eagerly (the cache core depends on
it); the durability and replication layers load on first attribute access
to keep ``import repro.core.cache`` cycle-free and cheap.
"""

from __future__ import annotations

import importlib

from repro.store.backend import (
    BackendOpStats,
    CacheBackend,
    DELETE_REASONS,
    InProcessBackend,
    WrappingBackend,
)

__all__ = [
    "BackendOpStats",
    "CacheBackend",
    "DELETE_REASONS",
    "InProcessBackend",
    "WrappingBackend",
    "JournalWriter",
    "JournaledBackend",
    "read_journal",
    "replay_journal",
    "PersistentStore",
    "ShardedPersistentStore",
    "ReplicaNode",
    "ReplicationDriver",
    "replicate_session",
]

#: Lazily-resolved exports: name -> (submodule, attribute).
_LAZY = {
    "JournalWriter": ("repro.store.journal", "JournalWriter"),
    "JournaledBackend": ("repro.store.journal", "JournaledBackend"),
    "read_journal": ("repro.store.journal", "read_journal"),
    "replay_journal": ("repro.store.journal", "replay_journal"),
    "PersistentStore": ("repro.store.persist", "PersistentStore"),
    "ShardedPersistentStore": ("repro.store.persist", "ShardedPersistentStore"),
    "ReplicaNode": ("repro.store.replication", "ReplicaNode"),
    "ReplicationDriver": ("repro.store.replication", "ReplicationDriver"),
    "replicate_session": ("repro.store.replnet", "replicate_session"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), attr)
