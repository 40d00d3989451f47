"""Tests for cache snapshot/restore."""

import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import FlatIndex
from repro.core import AsteriaCache, CacheSnapshot, Query, Sine
from repro.core.persistence import SNAPSHOT_VERSION, SnapshotVersionError
from repro.core.records import (
    RecordError,
    element_from_record,
    element_record,
    fetch_from_record,
    fetch_record,
    query_from_record,
    query_record,
)
from repro.core.types import FetchResult
from repro.embedding import HashingEmbedder
from repro.judger import SimulatedJudger
from repro.serving.proc.protocol import JsonCodec
from repro.store.persist import PersistentStore

DATA = Path(__file__).parent / "data" / "store_v2"


def fetch(result="answer", latency=0.4, cost=0.005, tokens=16):
    return FetchResult(
        result=result, latency=latency, service_latency=latency, cost=cost,
        size_tokens=tokens,
    )


def make_cache(ttl=3600.0, capacity=None):
    embedder = HashingEmbedder(seed=7)
    sine = Sine(embedder, FlatIndex(embedder.dim), SimulatedJudger(seed=3))
    return AsteriaCache(sine, capacity_items=capacity, default_ttl=ttl)


def populate(cache, n=5):
    for index in range(n):
        element = cache.insert(
            Query(f"distinct topic {index} kangaroo", fact_id=f"F{index}",
                  staticity=8),
            fetch(result=f"answer-{index}", cost=0.01 * (index + 1)),
            now=float(index * 10),
        )
        for hit in range(index):
            element.record_hit(float(index * 10 + hit + 1))
    return cache


class TestSnapshotRoundtrip:
    def test_json_roundtrip(self):
        snapshot = CacheSnapshot.of(populate(make_cache()))
        restored = CacheSnapshot.from_json(snapshot.to_json())
        assert restored.records == snapshot.records
        assert restored.taken_at == snapshot.taken_at

    def test_file_roundtrip(self, tmp_path):
        snapshot = CacheSnapshot.of(populate(make_cache()))
        path = tmp_path / "cache.json"
        snapshot.save(path)
        assert CacheSnapshot.load(path).records == snapshot.records

    def test_unknown_version_rejected(self):
        snapshot = CacheSnapshot.of(populate(make_cache()))
        payload = snapshot.to_json().replace(
            f'"version": {SNAPSHOT_VERSION}', '"version": 99'
        )
        assert '"version": 99' in payload
        with pytest.raises(SnapshotVersionError) as excinfo:
            CacheSnapshot.from_json(payload)
        # The error names the bad version and the supported range instead of
        # surfacing a raw KeyError from a missing field.
        message = str(excinfo.value)
        assert "99" in message
        assert str(SNAPSHOT_VERSION) in message
        assert "version" in message

    def test_infinite_ttl_encoded_as_null(self):
        cache = make_cache(ttl=None)
        populate(cache, n=1)
        snapshot = CacheSnapshot.of(cache)
        assert snapshot.records[0]["expires_at"] is None
        assert '"expires_at": null' in snapshot.to_json()


class TestRestore:
    def test_restore_preserves_contents_and_metadata(self):
        original = populate(make_cache())
        snapshot = CacheSnapshot.of(original)
        fresh = make_cache()
        restored = snapshot.restore_into(fresh, now=snapshot.taken_at)
        assert restored == len(original)
        by_truth = {
            element.truth_key: element for element in fresh.elements.values()
        }
        for element in original.elements.values():
            twin = by_truth[element.truth_key]
            assert twin.value == element.value
            assert twin.frequency == element.frequency
            assert twin.staticity == element.staticity
            assert twin.retrieval_cost == element.retrieval_cost

    def test_restored_cache_serves_semantic_hits(self):
        original = make_cache()
        original.insert(
            Query("who painted the mona lisa", fact_id="F"), fetch(), 0.0
        )
        snapshot = CacheSnapshot.of(original)
        fresh = make_cache()
        snapshot.restore_into(fresh, now=0.0)
        result = fresh.lookup(Query("mona lisa painter ok", fact_id="F"), 1.0)
        assert result.match is not None

    def test_restore_shifts_timestamps(self):
        original = make_cache(ttl=100.0)
        original.insert(Query("topic one", fact_id="F"), fetch(), now=50.0)
        snapshot = CacheSnapshot.of(original, now=60.0)
        fresh = make_cache(ttl=100.0)
        snapshot.restore_into(fresh, now=1000.0)
        element = next(iter(fresh.elements.values()))
        # Entry was 10 s old with 90 s of TTL left; both ages preserved.
        assert element.created_at == pytest.approx(990.0)
        assert element.expires_at == pytest.approx(1090.0)

    def test_expired_entries_dropped_on_restore(self):
        original = make_cache(ttl=10.0)
        original.insert(Query("topic one", fact_id="A"), fetch(), now=0.0)
        original.insert(Query("topic two", fact_id="B"), fetch(), now=100.0)
        snapshot = CacheSnapshot.of(original, now=105.0)  # A already dead
        fresh = make_cache(ttl=10.0)
        restored = snapshot.restore_into(fresh, now=105.0)
        assert restored == 1
        assert next(iter(fresh.elements.values())).truth_key == "B"

    def test_restore_into_nonempty_cache_rejected(self):
        snapshot = CacheSnapshot.of(populate(make_cache()))
        target = populate(make_cache(), n=1)
        with pytest.raises(ValueError):
            snapshot.restore_into(target)

    def test_restore_respects_capacity(self):
        snapshot = CacheSnapshot.of(populate(make_cache(), n=8))
        small = make_cache(capacity=3)
        snapshot.restore_into(small, now=snapshot.taken_at)
        assert len(small) <= 3


#: One randomized element: unicode key text, staticity, optional finite TTL
#: (None = never expires), and extra recorded hits.
element_entries = st.lists(
    st.tuples(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=24,
        ),
        st.integers(min_value=1, max_value=10),
        st.one_of(
            st.none(),
            st.floats(min_value=1.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=8,
)


def _randomized_cache(entries):
    cache = make_cache(ttl=None)
    for index, (text, staticity, ttl, hits) in enumerate(entries):
        element = cache.insert(
            Query(f"{text} entry {index}", fact_id=f"F{index}",
                  staticity=staticity),
            fetch(result=f"answer {text}"),
            now=float(index),
        )
        element.expires_at = (
            math.inf if ttl is None else element.created_at + ttl
        )
        for hit in range(hits):
            element.record_hit(float(index) + hit + 1.0)
    return cache


class TestSnapshotProperties:
    """Property-based strict-JSON round-trip over randomized caches."""

    @settings(max_examples=30, deadline=None)
    @given(entries=element_entries)
    def test_roundtrip_is_lossless_and_strict_json(self, entries):
        cache = _randomized_cache(entries)
        snapshot = CacheSnapshot.of(cache)
        payload = snapshot.to_json()
        # Strict JSON: no NaN/Infinity tokens anywhere in the payload.
        json.loads(
            payload,
            parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} in snapshot"
            ),
        )
        parsed = CacheSnapshot.from_json(payload)
        assert parsed.records == snapshot.records
        assert parsed.next_id == snapshot.next_id
        assert parsed.stats == snapshot.stats
        # One schema: what a frame carries is what the snapshot stores.
        codec = JsonCodec()
        for element, record in zip(cache.elements.values(), parsed.records):
            frame = codec.loads(codec.dumps(element_record(element)))
            assert frame == record
            assert element_record(element_from_record(frame)) == record
        fresh = make_cache(ttl=None)
        restored = parsed.restore_into(
            fresh, now=parsed.taken_at, drop_expired=False
        )
        assert restored == len(cache)
        for element_id, element in cache.elements.items():
            twin = fresh.elements[element_id]
            assert twin.key == element.key
            assert twin.value == element.value
            assert twin.staticity == element.staticity
            assert twin.frequency == element.frequency
            assert twin.expires_at == element.expires_at
        assert fresh._next_id == cache._next_id

    @settings(max_examples=10, deadline=None)
    @given(entries=element_entries)
    def test_infinite_expiry_survives_encode_decode(self, entries):
        cache = _randomized_cache(entries)
        payload = CacheSnapshot.of(cache).to_json()
        fresh = make_cache(ttl=None)
        CacheSnapshot.from_json(payload).restore_into(
            fresh, now=None, drop_expired=False
        )
        immortal = {
            element_id
            for element_id, element in cache.elements.items()
            if math.isinf(element.expires_at)
        }
        for element_id in immortal:
            assert math.isinf(fresh.elements[element_id].expires_at)

    def test_nan_staticity_rejected_not_emitted(self):
        cache = populate(make_cache(), n=1)
        element = next(iter(cache.elements.values()))
        element.staticity = float("nan")
        with pytest.raises(ValueError):
            CacheSnapshot.of(cache).to_json()


def _spoil(record, how, field):
    record = dict(record)
    if how == "drop":
        del record[field]
    elif how == "extra":
        record[field] = 1
    elif how == "bool":
        record[field] = True
    else:
        record[field] = ["no field is a list"]
    return record


class TestRecordChecks:
    """A record with a dropped, extra or mistyped field is refused by name."""

    @pytest.mark.parametrize(
        "how, field",
        [
            ("drop", "last_accessed_at"),
            ("drop", "metadata"),
            ("wrong_type", "value"),
            ("wrong_type", "expires_at"),
            ("bool", "frequency"),
            ("bool", "element_id"),
            ("extra", "embedding"),
        ],
    )
    def test_element_record(self, how, field):
        record = CacheSnapshot.of(populate(make_cache(), n=1)).records[0]
        with pytest.raises(RecordError, match=field):
            element_from_record(_spoil(record, how, field))
        # The restore path reads records through the same check.
        with pytest.raises(RecordError, match=field):
            make_cache().admit_restored(_spoil(record, how, field))

    @pytest.mark.parametrize(
        "how, field",
        [("drop", "fact_id"), ("wrong_type", "text"), ("bool", "staticity"),
         ("extra", "x")],
    )
    def test_query_record(self, how, field):
        record = query_record(Query("a question", fact_id="F", staticity=3))
        with pytest.raises(RecordError, match=field):
            query_from_record(_spoil(record, how, field))

    @pytest.mark.parametrize(
        "how, field",
        [("drop", "hedged"), ("wrong_type", "latency"), ("bool", "retries"),
         ("extra", "x")],
    )
    def test_fetch_record(self, how, field):
        record = fetch_record(fetch())
        with pytest.raises(RecordError, match=field):
            fetch_from_record(_spoil(record, how, field))

    def test_an_int_is_a_float_but_a_bool_is_not_an_int(self):
        record = CacheSnapshot.of(populate(make_cache(), n=1)).records[0]
        assert element_from_record({**record, "created_at": 3}).created_at == 3
        with pytest.raises(RecordError, match="retrieval_cost"):
            element_from_record({**record, "retrieval_cost": False})

    def test_a_range_the_type_refuses_is_a_record_error(self):
        record = query_record(Query("a question"))
        with pytest.raises(RecordError, match="staticity"):
            query_from_record({**record, "staticity": 11})


class TestParentWrittenStore:
    """``tests/data/store_v2`` holds a snapshot and a journal written by the
    build before :mod:`repro.core.records` replaced the format's reader and
    writer, and ``restored.json`` what that build restored from them: every
    element's identity, fields and order, the stats and the id counter."""

    def test_restores_what_the_writer_restored(self, tmp_path):
        for name in ("snapshot.json", "journal.jsonl"):
            shutil.copy(DATA / name, tmp_path / name)
        expected = json.loads((DATA / "restored.json").read_text())
        cache = AsteriaCache(
            Sine(HashingEmbedder(seed=7), FlatIndex(HashingEmbedder(seed=7).dim),
                 SimulatedJudger(seed=3)),
            capacity_items=6,
            default_ttl=None,
        )
        store = PersistentStore(tmp_path)
        report = store.attach(cache)
        store.close()
        assert report.as_dict() == expected["report"]
        restored = [element_record(e) for e in cache.elements.values()]
        assert restored == expected["elements"]
        assert vars(cache.stats) == expected["stats"]
        assert cache._next_id == expected["next_id"]

    def test_rewrites_snapshot_and_journal_byte_for_byte(self):
        snapshot = CacheSnapshot.load(DATA / "snapshot.json")
        assert snapshot.to_json() == (DATA / "snapshot.json").read_text()
        for line in (DATA / "journal.jsonl").read_text().splitlines():
            entry = json.loads(line)
            if entry["op"] == "admit":
                entry["record"] = element_record(element_from_record(entry["record"]))
            assert json.dumps(entry, allow_nan=False) == line


class TestV1Migration:
    def _v1_payload(self):
        source = populate(make_cache())
        records = []
        for record in CacheSnapshot.of(source).records:
            record = dict(record)
            # v1 records carried no identity and no metadata.
            del record["element_id"], record["metadata"]
            records.append(record)
        return source, json.dumps(
            {"version": 1, "taken_at": 40.0, "records": records}
        )

    def test_v1_payload_gets_sequential_ids(self):
        source, payload = self._v1_payload()
        migrated = CacheSnapshot.from_json(payload)
        assert [record["element_id"] for record in migrated.records] == [
            1, 2, 3, 4, 5,
        ]
        assert migrated.next_id == 6
        assert migrated.version == SNAPSHOT_VERSION
        fresh = make_cache()
        assert migrated.restore_into(fresh, now=40.0) == len(source)
        assert fresh._next_id == 6

    def test_v1_payload_without_stats_restores(self):
        _, payload = self._v1_payload()
        migrated = CacheSnapshot.from_json(payload)
        assert migrated.stats is None
        fresh = make_cache()
        migrated.restore_into(fresh, now=40.0, restore_stats=True)
        assert fresh.stats.inserts == 0  # nothing to restore, nothing broken


class TestStaticityTTL:
    def test_scaling_shortens_ephemeral_life(self):
        cache = make_cache(ttl=1000.0)
        cache.staticity_ttl_scaling = True
        stable = cache.insert(
            Query("history of rome empire", fact_id="A", staticity=10),
            fetch(), 0.0,
        )
        ephemeral = cache.insert(
            Query("price of copper futures", fact_id="B", staticity=2),
            fetch(), 0.0,
        )
        assert stable.expires_at > ephemeral.expires_at
        assert ephemeral.expires_at <= 0.0 + 1000.0 * 0.3 + 1e-9

    def test_disabled_by_default(self):
        cache = make_cache(ttl=1000.0)
        element = cache.insert(
            Query("price of copper futures", fact_id="B", staticity=2),
            fetch(), 0.0,
        )
        assert element.expires_at == pytest.approx(1000.0)


class TestInvalidate:
    def test_predicate_invalidation(self):
        cache = populate(make_cache())
        removed = cache.invalidate(lambda element: element.retrieval_cost > 0.025)
        assert removed == 3  # F2, F3, F4 at costs 0.03, 0.04, 0.05
        assert all(
            element.retrieval_cost <= 0.025 for element in cache.elements.values()
        )

    def test_invalidated_entries_unfindable(self):
        cache = make_cache()
        cache.insert(Query("who painted the mona lisa", fact_id="F"), fetch(), 0.0)
        cache.invalidate(lambda element: element.truth_key == "F")
        assert not cache.contains_semantic(
            Query("mona lisa painter", fact_id="F")
        )

    def test_no_match_removes_nothing(self):
        cache = populate(make_cache())
        before = len(cache)
        assert cache.invalidate(lambda element: False) == 0
        assert len(cache) == before
