"""Round trips for the types that cross a process boundary.

Elements and queries cross as records (:mod:`repro.core.records`) in JSON
frames, snapshots and journal lines: an arena-backed element arrives
detached from the arena it came from, and a query's metadata stays frozen.
Pickle is left only on ``multiprocessing``'s spawn of a
:class:`WorkerSpec`, which carries an :class:`AsteriaConfig`.
"""

import pickle

import repro.core
from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.core.records import (
    element_from_record,
    element_record,
    query_from_record,
    query_record,
)
from repro.factory import build_asteria_engine, build_remote
from repro.serving.proc.protocol import JsonCodec


def _engine():
    return build_asteria_engine(build_remote(seed=0), seed=0)


def _across(record):
    codec = JsonCodec()
    return codec.loads(codec.dumps(record))


def test_semantic_element_with_arena_slot_round_trips():
    engine = _engine()
    for i in range(4):
        engine.handle(Query(f"fact {i} about things", fact_id=f"F{i}"), now=0.0)
    elements = list(engine.cache.elements.values())
    assert elements and all(e.arena_slot is not None for e in elements)
    for element in elements:
        back = element_from_record(_across(element_record(element)))
        # Detached from the arena: no slot.
        assert back.arena_slot is None
        assert back.element_id == element.element_id
        assert back.truth_key == element.truth_key
        assert back.value == element.value
        assert back.expires_at == element.expires_at
        assert back.frequency == element.frequency


def test_semantic_element_without_arena_round_trips():
    """An element outside any arena (one decoded from a record) crosses
    again unchanged."""
    engine = _engine()
    engine.handle(Query("a standalone fact", fact_id="F0"), now=0.0)
    record = element_record(next(iter(engine.cache.elements.values())))
    element = element_from_record(_across(record))
    assert element.arena_slot is None
    back = element_from_record(_across(element_record(element)))
    assert element_record(back) == record
    assert back.arena_slot is None


def test_query_round_trips_with_frozen_metadata():
    query = Query("q", tool="search", fact_id="F1", metadata={"a": 1})
    back = query_from_record(_across(query_record(query)))
    assert back.text == "q"
    assert back.tool == "search"
    assert back.fact_id == "F1"
    assert dict(back.metadata) == {"a": 1}
    # Still immutable after the round trip.
    try:
        back.metadata["b"] = 2
    except TypeError:
        pass
    else:  # pragma: no cover - would be a regression
        raise AssertionError("metadata became mutable across the round trip")


def test_config_round_trips_and_alias():
    # One name: the old ``CacheConfig`` alias is gone.
    assert not hasattr(repro.core, "CacheConfig")
    config = AsteriaConfig(capacity_items=64, tau_sim=0.9, default_ttl=5.0)
    back = pickle.loads(pickle.dumps(config))
    assert back == config
