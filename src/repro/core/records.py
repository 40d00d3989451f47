"""One record schema for everything that crosses a process boundary.

Elements, queries, fetches, lookup results and shard stats leave a process
as *records* (JSON-safe dicts and lists) in frames, snapshots, journal lines
and replication diffs alike. Each type's field table is derived from its
dataclass: ``*_record(obj)`` encodes through it, and ``*_from_record(data)``
refuses, with a :class:`RecordError` naming the field, a record whose fields
are missing, extra or mistyped (a bool is not an int; an int is accepted
where a float is) or whose values the type's ``__post_init__`` refuses.

Embeddings never cross: a decoded element holds no arena slot, and a
restore re-embeds its key. ``expires_at`` is null for
"never expires", as strict JSON has no Infinity.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from collections.abc import Mapping
from itertools import islice
from types import NoneType, UnionType

from repro.ann.base import SearchHit
from repro.core.element import SemanticElement
from repro.core.sine import SineResult
from repro.core.types import CacheStats, FetchResult, Query
from repro.judger.base import JudgeVerdict


class RecordError(ValueError):
    """A record with a missing, extra or mistyped field, or a value its type
    refuses; the message names the field."""


_NUM = (int, float)


def _accepted(hint) -> tuple:
    """The types a field annotated ``hint`` accepts in a record: a float
    field takes an int too; a mapping or a nested dataclass is an object."""
    accepted = []
    for kind in typing.get_args(hint) if type(hint) is UnionType else (hint,):
        kind = typing.get_origin(kind) or kind
        if kind is float:
            accepted += _NUM
        elif kind is Mapping or dataclasses.is_dataclass(kind):
            accepted.append(dict)
        else:
            accepted.append(kind)
    return tuple(accepted)


def _table(kind, skip: tuple = (), **override: tuple) -> dict:
    """Field name -> accepted types, in ``kind``'s dataclass field order."""
    hints = typing.get_type_hints(kind)
    return {
        field.name: override.get(field.name) or _accepted(hints[field.name])
        for field in dataclasses.fields(kind)
        if field.name not in skip
    }


QUERY_FIELDS = _table(Query)
FETCH_FIELDS = _table(FetchResult)
#: The snapshot and journal field order, which is the dataclass's.
ELEMENT_FIELDS = _table(
    SemanticElement, skip=("arena_slot",), expires_at=(*_NUM, NoneType)
)
STATS_FIELDS = _table(CacheStats)
SINE_FIELDS = _table(SineResult)
#: ``SineResult`` rows: ``[score, key]`` hits, ``[score, truth, detail]`` verdicts.
_HIT_ROW = (_NUM, (int,))
_VERDICT_ROW = (_NUM, (bool, NoneType), (dict,))
#: Every worker reply's stats: the :data:`STATS_FIELDS` values, then its item count.
SHARD_STATS_ROW = (*STATS_FIELDS.values(), (int,))
#: A replication diff entry; ``record`` is null on an ``invalidate``.
DIFF_FIELDS = {
    "truth_key": (str,),
    "version": _NUM,
    "origin": (str,),
    "op": (str,),
    "record": (dict, NoneType),
}

def _accepts(value, accepted: tuple) -> bool:
    if type(value) is bool:
        return bool in accepted
    return isinstance(value, accepted)


def _expected(accepted: tuple) -> str:
    return " or ".join("null" if t is NoneType else t.__name__ for t in accepted)


def _check(data, fields: dict, what: str) -> None:
    if not isinstance(data, dict):
        raise RecordError(f"{what} record must be an object, got {type(data).__name__}")
    if data.keys() != fields.keys():
        missing = [name for name in fields if name not in data]
        if missing:
            raise RecordError(f"{what} record lacks field {missing[0]!r}")
        extra = next(name for name in data if name not in fields)
        raise RecordError(f"{what} record has unknown field {extra!r}")
    for name, accepted in fields.items():
        value = data[name]
        if type(value) not in accepted and not _accepts(value, accepted):
            raise RecordError(
                f"{what} field {name!r} must be {_expected(accepted)}, "
                f"got {type(value).__name__}"
            )


def check_rows(rows: list, columns: tuple, what: str) -> None:
    """Refuse each row that is not a list of ``len(columns)`` values, each of
    a type its column accepts."""
    for row in rows:
        if type(row) is not list or len(row) != len(columns):
            raise RecordError(f"{what} must be a list of {len(columns)}, got {row!r:.80}")
        for value, accepted in zip(row, columns):
            if type(value) not in accepted and not _accepts(value, accepted):
                raise RecordError(
                    f"{what} {row!r:.80} holds a {type(value).__name__}, "
                    f"not {_expected(accepted)}"
                )


def _build(kind, what: str, fields: dict):
    try:
        return kind(**fields)
    except ValueError as exc:
        raise RecordError(f"{what} record refused: {exc}") from exc


def _fields_of(obj, fields: dict) -> dict:
    return {name: getattr(obj, name) for name in fields}


def query_record(query: Query) -> dict:
    record = _fields_of(query, QUERY_FIELDS)
    record["metadata"] = dict(query.metadata)
    return record


def query_from_record(data) -> Query:
    _check(data, QUERY_FIELDS, "query")
    return _build(Query, "query", data)


def fetch_record(fetch: FetchResult) -> dict:
    return _fields_of(fetch, FETCH_FIELDS)


def fetch_from_record(data) -> FetchResult:
    _check(data, FETCH_FIELDS, "fetch")
    return _build(FetchResult, "fetch", data)


def element_record(element: SemanticElement) -> dict:
    record = _fields_of(element, ELEMENT_FIELDS)
    if math.isinf(element.expires_at):
        record["expires_at"] = None
    record["metadata"] = dict(element.metadata)
    return record


def element_from_record(data) -> SemanticElement:
    _check(data, ELEMENT_FIELDS, "element")
    fields = dict(data, metadata=dict(data["metadata"]))
    if fields["expires_at"] is None:
        fields["expires_at"] = math.inf
    return _build(SemanticElement, "element", fields)


def sine_record(result: SineResult) -> dict:
    match = result.match
    return {
        "match": None if match is None else element_record(match),
        "candidates": [[hit.score, hit.key] for hit in result.candidates],
        "verdicts": [[v.score, v.truth, v.detail] for v in result.verdicts],
        "ann_considered": result.ann_considered,
    }


def sine_from_record(data) -> SineResult:
    _check(data, SINE_FIELDS, "sine")
    check_rows(data["candidates"], _HIT_ROW, "sine candidate")
    check_rows(data["verdicts"], _VERDICT_ROW, "sine verdict")
    try:
        verdicts = [JudgeVerdict(*row) for row in data["verdicts"]]
    except ValueError as exc:
        raise RecordError(f"sine verdict refused: {exc}") from exc
    match = data["match"]
    return SineResult(
        match=None if match is None else element_from_record(match),
        candidates=[SearchHit(*row) for row in data["candidates"]],
        verdicts=verdicts,
        ann_considered=data["ann_considered"],
    )


def stats_record(stats: CacheStats) -> dict:
    return _fields_of(stats, STATS_FIELDS)


def stats_from_record(data) -> CacheStats:
    _check(data, STATS_FIELDS, "stats")
    return CacheStats(**data)


def shard_stats_row(stats: CacheStats, usage: int) -> list:
    return [*stats_record(stats).values(), usage]


def stats_from_rows(rows) -> CacheStats:
    """Exact-sum :class:`CacheStats` across shard-stats rows."""
    return CacheStats(*map(sum, islice(zip(*rows), len(STATS_FIELDS))))


def usage_from_rows(rows) -> int:
    return sum(row[-1] for row in rows)


def check_diff(entries) -> None:
    """Check a whole replication diff before any of it is applied: every
    entry's fields, its op, and an upsert's element record."""
    if not isinstance(entries, list):
        raise RecordError(f"diff must be a list, got {type(entries).__name__}")
    for entry in entries:
        _check(entry, DIFF_FIELDS, "diff")
        op = entry["op"]
        if op == "upsert":
            element_from_record(entry["record"])
        elif op != "invalidate":
            raise RecordError(f"diff field 'op' must be upsert or invalidate, got {op!r}")
        elif entry["record"] is not None:
            raise RecordError("diff field 'record' must be null on an invalidate")
