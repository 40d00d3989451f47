"""Cache persistence: snapshot, save, and warm-restore.

A production knowledge cache survives process restarts — losing it means a
full cold-start storm against rate-limited remote APIs. A
:class:`CacheSnapshot` captures every semantic element's key/value and
metadata as plain JSON (embeddings are *not* stored: keys are re-embedded on
restore, which keeps snapshots model-agnostic — upgrade the embedder and the
old snapshot still loads). Each element is a :mod:`repro.core.records`
record, as in every frame, journal line and replication diff.

Format history:

* **v1** — element records without identity or metadata; restore
  re-issued ids.
* **v2** — records carry ``element_id``, the snapshot carries the cache's
  ``next_id`` counter and its :class:`~repro.core.types.CacheStats`, so a
  restored cache continues the *exact* id sequence and stat history of the
  original — the property the warm-restart equivalence tests rely on, and
  the property the journal needs (its records reference element ids).

v1 payloads still load: records are migrated by assigning sequential ids in
snapshot order and empty metadata. Unknown versions raise
:class:`SnapshotVersionError` with a message naming the supported range
instead of a raw ``KeyError`` from a missing field.

>>> snapshot = CacheSnapshot.of(cache)
>>> snapshot.save("cache.json")
>>> restored = CacheSnapshot.load("cache.json")
>>> restored.restore_into(fresh_cache, now=clock.now)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import AsteriaCache
from repro.core.records import element_record, stats_from_record, stats_record

#: Snapshot format version; bump on breaking layout changes.
SNAPSHOT_VERSION = 2

#: Versions :meth:`CacheSnapshot.from_json` can load (older ones migrate).
SUPPORTED_VERSIONS = (1, 2)


class SnapshotVersionError(ValueError):
    """A snapshot payload declares a version this build cannot load."""

    def __init__(self, version) -> None:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        super().__init__(
            f"unsupported snapshot version {version!r}: this build reads "
            f"versions {{{supported}}} (current {SNAPSHOT_VERSION}); "
            f"re-snapshot with a matching build or migrate the payload"
        )
        self.version = version


@dataclass
class CacheSnapshot:
    """A serialisable image of one cache's contents."""

    taken_at: float
    records: list[dict] = field(default_factory=list)
    version: int = SNAPSHOT_VERSION
    next_id: int | None = None
    stats: dict | None = None

    @classmethod
    def of(cls, cache: AsteriaCache, now: float | None = None) -> "CacheSnapshot":
        """Capture ``cache``'s live elements.

        ``now`` (defaulting to the newest access time) is stored so restores
        can age entries relative to the snapshot moment.
        """
        elements = list(cache.elements.values())
        if now is None:
            now = max(
                (element.last_accessed_at for element in elements), default=0.0
            )
        return cls(
            taken_at=now,
            records=[element_record(element) for element in elements],
            next_id=cache._next_id,
            stats=stats_record(cache.stats),
        )

    def __len__(self) -> int:
        return len(self.records)

    # -- (de)serialisation -------------------------------------------------
    def to_json(self) -> str:
        """Strict-JSON encoding of the snapshot."""
        return json.dumps(
            {
                "version": self.version,
                "taken_at": self.taken_at,
                "next_id": self.next_id,
                "stats": self.stats,
                "records": self.records,
            },
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CacheSnapshot":
        """Parse a snapshot; migrates v1 payloads, rejects unknown versions."""
        data = json.loads(payload)
        version = data.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise SnapshotVersionError(version)
        records = list(data["records"])
        next_id = data.get("next_id")
        stats = data.get("stats")
        if version == 1:
            # v1 records carried no identity and no metadata: assign
            # sequential ids in snapshot order, exactly what the old restore
            # path produced.
            for position, record in enumerate(records, start=1):
                record.setdefault("element_id", position)
                record.setdefault("metadata", {})
            next_id = len(records) + 1
        return cls(
            taken_at=float(data["taken_at"]),
            records=records,
            version=SNAPSHOT_VERSION,
            next_id=next_id,
            stats=stats,
        )

    def save(self, path: "str | Path") -> None:
        """Write the snapshot to ``path`` atomically (write-tmp-rename, so a
        crash mid-save can never leave a torn snapshot)."""
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(self.to_json())
        tmp.replace(target)

    @classmethod
    def load(cls, path: "str | Path") -> "CacheSnapshot":
        """Read a snapshot from ``path``."""
        return cls.from_json(Path(path).read_text())

    # -- restore -------------------------------------------------------------
    def restore_into(
        self,
        cache: AsteriaCache,
        now: float | None = 0.0,
        drop_expired: bool = True,
        restore_stats: bool = False,
    ) -> int:
        """Re-populate ``cache`` from this snapshot; returns elements restored.

        Keys are re-embedded through the cache's own Sine, timestamps are
        shifted so ages are preserved relative to ``now`` (an entry 100 s
        old at snapshot time is 100 s old after restore), and entries whose
        TTL already lapsed are skipped when ``drop_expired``. Pass
        ``now=None`` (or ``taken_at``) to restore on the *same* clock with
        zero shift — the warm-restart mode, where a restarted process
        continues the original timeline. Element ids are preserved, and the
        cache's id counter resumes past the snapshot's ``next_id`` so heap
        tie-breaks and journal references replay exactly.
        ``restore_stats`` additionally restores the cumulative
        :class:`CacheStats` counters captured at snapshot time.
        """
        if len(cache):
            raise ValueError("restore_into requires an empty cache")
        if now is None:
            now = self.taken_at
        shift = now - self.taken_at
        restored = 0
        for record in self.records:
            element = cache.admit_restored(
                record, shift=shift, now=now, drop_expired=drop_expired
            )
            if element is not None:
                restored += 1
        if self.next_id is not None:
            cache.reserve_id(self.next_id - 1)
        if restore_stats and self.stats is not None:
            vars(cache.stats).update(vars(stats_from_record(self.stats)))
        cache._enforce_capacity(now)
        return restored

    def __repr__(self) -> str:
        return f"CacheSnapshot(elements={len(self)}, taken_at={self.taken_at})"
