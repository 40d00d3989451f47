"""Append-only JSONL write-ahead journal for the semantic cache.

Every cache mutation the backend sees becomes one JSON line:

* ``{"seq": n, "op": "admit", "id": i, "record": {...}}`` — admission, with
  the full :func:`~repro.core.records.element_record` payload;
* ``{"seq": n, "op": "evict", "id": i, "reason": r}`` — removal, with the
  cache's reason ("evict" capacity, "expire" TTL, "invalidate", "delete");
* ``{"seq": n, "op": "touch", "id": i, "f": freq, "a": last_access}`` — a
  validated hit, carrying *absolute* frequency and last-access values so
  replaying a touch twice is a no-op.

``seq`` is a monotonically increasing log sequence number. Replay applies
only records with ``seq`` above the cache's high-water mark
(``journal_applied_seq``), which makes replay **idempotent by
construction**: replaying the same WAL twice — the crash-during-restore
case — leaves the cache byte-identical to a single replay.

Durability is batched: the writer ``fsync``\\ s every ``fsync_every``
records (and on explicit :meth:`JournalWriter.flush`, which the serving
stop paths call on SIGTERM). After ``kill -9``, everything up to the last
fsynced batch replays; a torn final line (the crash-mid-write case) is
detected and dropped by :func:`read_journal`.

Compaction is snapshot+truncate: :class:`~repro.store.persist.PersistentStore`
writes a fresh snapshot (atomic rename), then :meth:`JournalWriter.truncate`
resets the log and its sequence counter.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.cache import AsteriaCache
from repro.core.records import element_record
from repro.store.backend import CacheBackend, WrappingBackend


class JournalWriter:
    """Appends journal records to a JSONL file with batched fsync.

    Parameters
    ----------
    path:
        Journal file (created if missing; appended to if present — the
        sequence counter resumes after the last intact record).
    fsync_every:
        Records per fsync batch. 1 = fsync every record (safest, slowest);
        larger batches amortise the disk flush at the cost of losing up to
        ``fsync_every - 1`` records on a hard kill.
    """

    def __init__(self, path: "str | Path", fsync_every: int = 8) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.seq = 0
        if self.path.exists():
            records, _truncated = read_journal(self.path)
            if records:
                self.seq = records[-1]["seq"]
        self._file = open(self.path, "a", encoding="utf-8")
        self._pending = 0
        #: Highest sequence number guaranteed on disk (fsynced).
        self.durable_seq = self.seq
        self.appended = 0
        self.fsyncs = 0

    def append(self, payload: dict) -> int:
        """Write one record (``seq`` is stamped here); returns its seq."""
        self.seq += 1
        payload = {"seq": self.seq, **payload}
        self._file.write(json.dumps(payload, allow_nan=False) + "\n")
        self._pending += 1
        self.appended += 1
        if self._pending >= self.fsync_every:
            self.flush()
        return self.seq

    def flush(self) -> None:
        """Flush buffered records and fsync — everything appended so far is
        durable when this returns."""
        if self._file.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending = 0
        self.durable_seq = self.seq

    def truncate(self) -> None:
        """Reset the journal to empty (post-snapshot compaction)."""
        self._file.close()
        self._file = open(self.path, "w", encoding="utf-8")
        self._file.flush()
        os.fsync(self._file.fileno())
        self.seq = 0
        self.durable_seq = 0
        self._pending = 0

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()

    def stats(self) -> dict:
        return {
            "seq": self.seq,
            "durable_seq": self.durable_seq,
            "appended": self.appended,
            "fsyncs": self.fsyncs,
            "fsync_every": self.fsync_every,
        }

    def __repr__(self) -> str:
        return f"JournalWriter(path={str(self.path)!r}, seq={self.seq})"


def read_journal(path: "str | Path") -> tuple[list[dict], bool]:
    """Read every intact record from a journal file.

    Returns ``(records, truncated_tail)``. A process killed mid-append can
    leave a torn final line; parsing stops there and ``truncated_tail`` is
    True. A torn line anywhere *before* the end means real corruption and
    raises ``ValueError`` instead of silently dropping committed records.
    """
    path = Path(path)
    if not path.exists():
        return [], False
    records: list[dict] = []
    torn_at: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if torn_at is not None:
                raise ValueError(
                    f"journal {path} corrupt: undecodable record at line "
                    f"{torn_at} is not the final line"
                )
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                torn_at = line_no
                continue
            if not isinstance(record, dict) or "seq" not in record:
                torn_at = line_no
                continue
            records.append(record)
    return records, torn_at is not None


def replay_journal(cache: AsteriaCache, records: list[dict]) -> dict:
    """Apply journal records to ``cache``; returns a replay report.

    Only records with ``seq`` above ``cache.journal_applied_seq`` are
    applied (the high-water mark advances as they are), so calling this
    twice with the same WAL is exactly equivalent to calling it once.
    Admits preserve element ids and do **not** enforce capacity — the
    journal's own evict records reproduce the membership trajectory.
    Cache stats advance the way the live run advanced them: admits count
    as inserts, capacity evictions as evictions, TTL removals as
    expirations.
    """
    applied_seq = getattr(cache, "journal_applied_seq", 0)
    report = {"applied": 0, "skipped": 0, "admits": 0, "evicts": 0, "touches": 0}
    elements = cache.elements
    for record in records:
        seq = record["seq"]
        if seq <= applied_seq:
            report["skipped"] += 1
            continue
        op = record["op"]
        if op == "admit":
            element = cache.admit_restored(
                record["record"], element_id=record["id"], drop_expired=False
            )
            if element is not None:
                cache.stats.inserts += 1
                if element.prefetched:
                    cache.stats.prefetch_inserts += 1
                report["admits"] += 1
        elif op == "evict":
            if record["id"] in elements:
                cache.remove(record["id"], reason=record.get("reason", "delete"))
                reason = record.get("reason")
                if reason == "evict":
                    cache.stats.evictions += 1
                elif reason == "expire":
                    cache.stats.expirations += 1
                report["evicts"] += 1
        elif op == "touch":
            element = elements.get(record["id"])
            if element is not None:
                element.frequency = record["f"]
                element.last_accessed_at = record["a"]
                report["touches"] += 1
        applied_seq = seq
        report["applied"] += 1
    cache.journal_applied_seq = applied_seq
    return report


class JournaledBackend(WrappingBackend):
    """Backend decorator that writes every mutation to a :class:`JournalWriter`.

    Attach *after* restore completes (see
    :meth:`repro.core.cache.AsteriaCache.wrap_backend`) so replayed
    admissions are not re-journaled. ``log_touches=False`` trades exact
    frequency/recency recovery for a much smaller journal — membership is
    still exact.
    """

    name = "journaled"

    def __init__(
        self,
        inner: CacheBackend,
        writer: JournalWriter,
        log_touches: bool = True,
    ) -> None:
        super().__init__(inner)
        self.writer = writer
        self.log_touches = log_touches

    def put(self, element) -> None:
        self.inner.put(element)
        self.writer.append(
            {"op": "admit", "id": element.element_id, "record": element_record(element)}
        )

    def touch(self, element) -> None:
        self.inner.touch(element)
        if self.log_touches:
            self.writer.append(
                {
                    "op": "touch",
                    "id": element.element_id,
                    "f": element.frequency,
                    "a": element.last_accessed_at,
                }
            )

    def delete(self, element_id: int, reason: str = "delete"):
        element = self.inner.delete(element_id, reason=reason)
        if element is not None:
            self.writer.append({"op": "evict", "id": element_id, "reason": reason})
        return element

    def stats(self) -> dict:
        return {**self.inner.stats(), "journal": self.writer.stats()}

    def flush(self) -> None:
        self.writer.flush()
        self.inner.flush()

    def close(self) -> None:
        self.writer.close()
        self.inner.close()
