"""Snapshot + journal durability behind ``--persist DIR``.

Directory layout (one per cache; the proc tier's workers each get one
``DIR/shard_NN`` subdirectory):

.. code-block:: text

    DIR/
      snapshot.json    # CacheSnapshot v2, atomically replaced at checkpoint
      journal.jsonl    # WAL of mutations since the snapshot
      routing          # shard stores only: the routing that placed them

Attach sequence (:meth:`PersistentStore.attach`):

1. **Restore** — load the snapshot (zero time-shift: a restarted process
   continues the original timeline) and replay the journal over it. Ids,
   frequencies, timestamps, and cumulative cache stats all resume exactly.
2. **Checkpoint** — write a fresh snapshot of the recovered state
   (write-tmp-rename) and truncate the journal. A crash at any point in
   this window recovers from either the old snapshot+journal or the new
   snapshot; never from a half state.
3. **Wrap** — decorate the cache's backend with a
   :class:`~repro.store.journal.JournaledBackend` so every subsequent
   mutation lands in the (now empty) journal.

``flush()`` (wired to SIGTERM in the serving paths) makes everything
appended so far durable; ``kill -9`` loses at most the last unfsynced
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.cache import AsteriaCache
from repro.core.persistence import CacheSnapshot
from repro.core.sharding import ROUTING
from repro.store.journal import JournaledBackend, JournalWriter, read_journal, replay_journal

SNAPSHOT_FILE = "snapshot.json"
JOURNAL_FILE = "journal.jsonl"
ROUTING_FILE = "routing"


@dataclass
class RestoreReport:
    """What :meth:`PersistentStore.attach` recovered."""

    cold: bool = True
    snapshot_records: int = 0
    snapshot_restored: int = 0
    journal_records: int = 0
    journal_truncated_tail: bool = False
    journal_applied: int = 0
    journal_admits: int = 0
    journal_evicts: int = 0
    journal_touches: int = 0
    restored_items: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class PersistentStore:
    """One cache's durable home: ``snapshot.json`` + ``journal.jsonl``."""

    def __init__(
        self,
        directory: "str | Path",
        fsync_every: int = 8,
        log_touches: bool = True,
    ) -> None:
        self.directory = Path(directory)
        _refuse_shard_layout(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self.log_touches = log_touches
        self.writer: JournalWriter | None = None
        self.cache: AsteriaCache | None = None

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_FILE

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_FILE

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cache: AsteriaCache, now: float | None = None) -> RestoreReport:
        """Restore ``cache`` from disk, checkpoint, and start journaling.

        ``cache`` must be empty. ``now=None`` restores on the snapshot's own
        clock (zero shift — the warm-restart mode); pass a wall-clock style
        ``now`` to age entries across downtime instead.
        """
        if self.cache is not None:
            raise RuntimeError("store already attached")
        report = RestoreReport()
        if self.snapshot_path.exists():
            snapshot = CacheSnapshot.load(self.snapshot_path)
            report.cold = False
            report.snapshot_records = len(snapshot)
            report.snapshot_restored = snapshot.restore_into(
                cache, now=now, restore_stats=True
            )
        records, truncated = read_journal(self.journal_path)
        if records:
            report.cold = False
        report.journal_records = len(records)
        report.journal_truncated_tail = truncated
        if records:
            replay = replay_journal(cache, records)
            report.journal_applied = replay["applied"]
            report.journal_admits = replay["admits"]
            report.journal_evicts = replay["evicts"]
            report.journal_touches = replay["touches"]
        report.restored_items = len(cache)
        # Compact what we just recovered, then journal from a clean slate.
        CacheSnapshot.of(cache).save(self.snapshot_path)
        self.journal_path.unlink(missing_ok=True)
        self.writer = JournalWriter(self.journal_path, fsync_every=self.fsync_every)
        cache.journal_applied_seq = 0
        cache.wrap_backend(
            lambda inner: JournaledBackend(
                inner, self.writer, log_touches=self.log_touches
            )
        )
        self.cache = cache
        return report

    def checkpoint(self) -> None:
        """Snapshot the live cache and truncate the journal (compaction)."""
        if self.cache is None or self.writer is None:
            raise RuntimeError("store not attached")
        CacheSnapshot.of(self.cache).save(self.snapshot_path)
        self.writer.truncate()
        self.cache.journal_applied_seq = 0

    def flush(self) -> None:
        """Force-fsync the journal (graceful-stop path)."""
        if self.writer is not None:
            self.writer.flush()

    def close(self, checkpoint: bool = False) -> None:
        """Flush and close; optionally compact first so the next start
        restores from the snapshot alone."""
        if checkpoint and self.cache is not None:
            self.checkpoint()
        if self.writer is not None:
            self.writer.close()

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "journal": self.writer.stats() if self.writer is not None else None,
        }


def shard_directory(directory: "str | Path", shard: int, n_shards: int) -> Path:
    """The persist subdirectory for shard ``shard``: ``DIR/shard_NN``, the
    proc tier's layout (one store per worker).

    Refuses a ``DIR`` written under another shard count or routing (each
    store's ``routing`` file names it; a store without one predates
    content-key routing): restoring it would strand entries on shards no
    request for them is ever routed to.
    """
    directory = Path(directory)
    stores = list(directory.glob("shard_*"))
    if stores and len(stores) != n_shards:
        raise ValueError(
            f"persist dir {directory} holds {len(stores)} shard stores but "
            f"the cache has {n_shards} shards; use the original shard "
            f"count or a fresh directory"
        )
    for store in stores:
        marker = store / ROUTING_FILE
        found = marker.read_text().strip() if marker.exists() else "text-crc32"
        if found != ROUTING:
            raise ValueError(
                f"persist dir {directory} holds shard stores under "
                f"{found} routing but the cache routes by {ROUTING}; "
                f"use a fresh directory"
            )
    return directory / f"shard_{shard:02d}"


def _refuse_shard_layout(directory: Path) -> None:
    """A one-cache store lives in ``DIR`` itself; refuse a ``DIR`` holding
    the proc tier's ``shard_NN`` stores, which a single cache would leave
    unread (and start cold beside)."""
    stores = list(directory.glob("shard_*"))
    if stores:
        raise ValueError(
            f"persist dir {directory} holds {len(stores)} shard stores, which "
            f"only the proc tier reads; serve it with --engine proc --workers "
            f"{len(stores)} or use a fresh directory"
        )


def mark_routing(store: "str | Path") -> None:
    """Record in a shard store the routing that places its entries, for
    :func:`shard_directory` to check when the layout is reopened."""
    Path(store).mkdir(parents=True, exist_ok=True)
    (Path(store) / ROUTING_FILE).write_text(ROUTING + "\n")
