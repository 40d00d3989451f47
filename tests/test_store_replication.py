"""Tests for cross-region replication: convergence, LWW, invalidation,
frame transport, and the socket session."""

import socket
import threading

import pytest

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.core.types import FetchResult
from repro.factory import build_asteria_engine, build_remote
from repro.serving.proc.protocol import FrameError, FrameSplitter, encode_frame
from repro.store.replication import (
    FrameLink,
    ReplicaNode,
    ReplicationDriver,
    agreement_between,
)
from repro.store.replnet import digest_agreement, node_digest, replicate_session

SEED = 11
CONFIG = AsteriaConfig(capacity_items=64)


def fetch(result="answer"):
    return FetchResult(
        result=result, latency=0.4, service_latency=0.4, cost=0.005,
        size_tokens=16,
    )


def make_node(node_id, capacity=64):
    engine = build_asteria_engine(
        build_remote(seed=SEED), config=AsteriaConfig(capacity_items=capacity),
        seed=SEED,
    )
    return engine, ReplicaNode(node_id, engine.cache)


def trace(population, n, offset=0):
    return [
        Query(f"replicated fact number {(i + offset) % population} of the realm",
              fact_id=f"F{(i + offset) % population}")
        for i in range(n)
    ]


class TestConvergence:
    # A longer interval may cost staleness mid-run, never convergence. 2.4 s
    # of traffic, so even the 1.0 s interval syncs twice before the drain.
    @pytest.mark.parametrize("sync_interval", [0.1, 0.25, 0.5, 1.0])
    def test_pair_converges_to_full_agreement(self, sync_interval):
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        driver = ReplicationDriver(
            node_a,
            node_b,
            sync_interval=sync_interval,
            latency_ab=0.05,
            latency_ba=0.09,
        )
        queries_a = trace(20, 240)
        queries_b = trace(20, 240, offset=7)
        for i in range(240):
            now = i * 0.01
            engine_a.handle(queries_a[i], now=now)
            engine_b.handle(queries_b[i], now=now)
            driver.tick(now)
        mid = driver.agreement()
        driver.drain(2.4)
        final = driver.agreement()
        assert final.agreement == 1.0
        assert final.union_keys > 0
        assert final.stale_keys == 0
        assert mid.union_keys <= final.union_keys
        # Real frame bytes crossed the links in both directions.
        assert driver.link_ab.frames_sent > 0
        assert driver.link_ab.bytes_sent > 0
        assert driver.link_ba.frames_sent > 0

    def test_replicated_entries_serve_hits(self):
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        driver = ReplicationDriver(node_a, node_b, sync_interval=0.1)
        engine_a.handle(Query("who painted the mona lisa", fact_id="F"), now=0.0)
        for step in range(1, 6):
            driver.tick(step * 0.1)
        assert len(engine_b.cache) == 1
        result = engine_b.cache.lookup(
            Query("mona lisa painter", fact_id="F"), 1.0
        )
        assert result.match is not None

    def test_capacity_evictions_do_not_replicate(self):
        engine_a, node_a = make_node("A", capacity=4)
        engine_b, node_b = make_node("B", capacity=64)
        driver = ReplicationDriver(node_a, node_b, sync_interval=0.1)
        for i, query in enumerate(trace(10, 10)):
            engine_a.handle(query, now=i * 0.01)
            driver.tick(i * 0.01)
        driver.drain(0.2)
        # A holds only its capacity; B keeps every replicated admission.
        assert len(engine_a.cache) == 4
        assert len(engine_b.cache) == 10
        assert node_b.stats_rep.applied_invalidations == 0


class TestLastWriterWins:
    def _pair(self):
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        return engine_a, node_a, engine_b, node_b

    def test_later_version_wins_on_both_sides(self):
        engine_a, node_a, engine_b, node_b = self._pair()
        node_a.now = node_b.now = 0.0
        engine_a.cache.insert(
            Query("price of copper today", fact_id="F"), fetch("old"), 1.0
        )
        engine_b.cache.insert(
            Query("copper price right now", fact_id="F"), fetch("new"), 2.0
        )
        # Full mesh exchange at t=3.
        diff_a = node_a.collect_diff()
        diff_b = node_b.collect_diff()
        node_a.apply_diff(diff_b, now=3.0)
        node_b.apply_diff(diff_a, now=3.0)
        sample = agreement_between(node_a, node_b)
        assert sample.agreement == 1.0
        for cache in (engine_a.cache, engine_b.cache):
            values = [
                element.value
                for element in cache.elements.values()
                if element.truth_key == "F"
            ]
            assert values == ["new"]
        assert node_a.versions["F"] == (2.0, "B")
        assert node_b.versions["F"] == (2.0, "B")
        assert node_a.stats_rep.applied_upserts == 1
        assert node_b.stats_rep.lww_rejects == 1

    def test_tie_breaks_on_origin(self):
        _, node_a, _, node_b = self._pair()
        record = {
            "truth_key": "F",
            "version": 5.0,
            "origin": "B",
            "op": "invalidate",
            "record": None,
        }
        node_a.versions["F"] = (5.0, "A")
        node_a.apply_diff([record])
        # (5.0, "B") > (5.0, "A") lexicographically: B's write wins the tie.
        assert node_a.versions["F"] == (5.0, "B")

    def test_lagging_clock_write_still_wins_at_the_peer(self):
        """A region whose clock lags must still be able to supersede a
        peer-originated entry: the local write's version is Lamport-bumped
        past the version it observed, so the peer applies (not LWW-rejects)
        the diff and the pair re-converges."""
        engine_a, node_a, engine_b, node_b = self._pair()
        # B wrote F at its (fast) clock's 5.0; A learned it via a diff.
        engine_b.cache.insert(
            Query("price of copper today", fact_id="F"), fetch("from-b"), 5.0
        )
        node_a.apply_diff(node_b.collect_diff(), now=0.2)
        assert node_a.versions["F"] == (5.0, "B")
        # A's own clock reads only 0.3 when it refetches F locally.
        engine_a.cache.insert(
            Query("copper price right now", fact_id="F"), fetch("from-a"), 0.3
        )
        version, origin = node_a.versions["F"]
        assert origin == "A"
        assert version > 5.0
        assert node_a.pending[-1]["version"] == version
        node_b.apply_diff(node_a.collect_diff(), now=5.1)
        assert node_b.versions["F"] == (version, "A")
        assert agreement_between(node_a, node_b).agreement == 1.0
        values = [
            element.value
            for element in engine_b.cache.elements.values()
            if element.truth_key == "F"
        ]
        assert values == ["from-a"]

    def test_local_insert_supersedes_older_same_truth_entry(self):
        engine_a, node_a, _, _ = self._pair()
        engine_a.cache.insert(
            Query("price of copper today", fact_id="F"), fetch("old"), 1.0
        )
        engine_a.cache.insert(
            Query("copper price this hour", fact_id="F"), fetch("new"), 2.0
        )
        values = [
            element.value
            for element in engine_a.cache.elements.values()
            if element.truth_key == "F"
        ]
        assert values == ["new"]
        # The supersede removal rides the upsert; no invalidate diff emitted.
        ops = [record["op"] for record in node_a.pending]
        assert ops == ["upsert", "upsert"]


class TestInvalidation:
    def test_invalidation_propagates(self):
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        driver = ReplicationDriver(node_a, node_b, sync_interval=0.1)
        engine_a.handle(Query("who painted the mona lisa", fact_id="F"), now=0.0)
        for step in range(1, 4):
            driver.tick(step * 0.1)
        assert len(engine_b.cache) == 1
        node_a.now = 1.0
        engine_a.cache.invalidate(lambda element: element.truth_key == "F")
        for step in range(11, 15):
            driver.tick(step * 0.1)
        assert len(engine_b.cache) == 0
        assert node_b.stats_rep.applied_invalidations == 1
        assert agreement_between(node_a, node_b).agreement == 1.0


class TestFrameSplitter:
    def test_reassembles_partial_frames(self):
        splitter = FrameSplitter()
        stream = encode_frame(b"alpha") + encode_frame(b"beta") + encode_frame(b"x")
        collected = []
        for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
            collected.extend(splitter.feed(stream[i:i + 3]))
        assert collected == [b"alpha", b"beta", b"x"]
        assert splitter.pending_bytes == 0

    def test_buffers_incomplete_tail(self):
        splitter = FrameSplitter()
        frame = encode_frame(b"payload")
        assert splitter.feed(frame[:-2]) == []
        assert splitter.pending_bytes == len(frame) - 2
        assert splitter.feed(frame[-2:]) == [b"payload"]

    def test_oversized_length_rejected(self):
        splitter = FrameSplitter()
        with pytest.raises(FrameError):
            splitter.feed(b"\xff\xff\xff\xff")

    def test_frame_link_delivers_after_latency(self):
        link = FrameLink(latency=0.5)
        link.send({"op": "diff", "records": []}, now=0.0)
        assert link.deliver(0.4) == []
        assert link.in_flight == 1
        delivered = link.deliver(0.5)
        assert delivered == [{"op": "diff", "records": []}]
        assert link.in_flight == 0


class TestSocketSession:
    def test_two_sessions_converge_over_socketpair(self):
        sock_a, sock_b = socket.socketpair()
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        queries_a = trace(12, 40)
        queries_b = trace(12, 40, offset=5)
        reports = {}

        def run(name, node, engine, sock, queries):
            workload = (
                (lambda now, query=query: engine.handle(query, now=now))
                for query in queries
            )
            reports[name] = replicate_session(
                node, sock, workload=workload, sync_interval=0.05
            )

        threads = [
            threading.Thread(
                target=run, args=("a", node_a, engine_a, sock_a, queries_a)
            ),
            threading.Thread(
                target=run, args=("b", node_b, engine_b, sock_b, queries_b)
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert set(reports) == {"a", "b"}
        for report in reports.values():
            assert report["steps"] == 40
            assert report["agreement"] is not None
            assert report["agreement"]["agreement"] == 1.0
        assert reports["a"]["peer"] == "B"
        assert reports["b"]["peer"] == "A"
        assert reports["a"]["items"] == reports["b"]["items"]

    def test_digest_agreement_scoring(self):
        assert digest_agreement({}, {})["agreement"] == 1.0
        mine = {"F1": [1.0, "A"], "F2": [2.0, "B"]}
        theirs = {"F1": [1.0, "A"], "F2": [3.0, "A"], "F3": [1.0, "A"]}
        score = digest_agreement(mine, theirs)
        assert score["agreement"] == pytest.approx(1 / 3)
        assert score["union_keys"] == 3
        assert score["stale_keys"] == 2

    def test_node_digest_lists_live_keys_only(self):
        engine, node = make_node("A")
        engine.cache.insert(Query("topic one", fact_id="F"), fetch(), 0.0)
        node.now = 1.0
        engine.cache.invalidate(lambda element: element.truth_key == "F")
        # The tombstone stays in versions but the digest covers live keys.
        assert "F" in node.versions
        assert node_digest(node) == {}
