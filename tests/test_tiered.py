"""Tests for the two-tier fleet node: an engine over a private L1 whose
remote is the shared L2 in front of the real remote.

An L2 hit is a fetch from the node's remote, so the node counts it as a
miss; ``node.remote.hits`` (the shared tier) counts it as an L2 hit."""

import pytest

from repro.core import AsteriaConfig, Query
from repro.factory import (
    build_remote,
    build_semantic_cache,
    build_tiered_engine,
)
from repro.sim import Simulator


def fleet(n_nodes=2, l1_capacity=16, seed=5):
    remote = build_remote(seed=3)
    l2 = build_semantic_cache(AsteriaConfig(capacity_items=256), seed=seed)
    nodes = [
        build_tiered_engine(
            remote, l2, l1_capacity=l1_capacity, seed=seed, name=f"node{i}"
        )
        for i in range(n_nodes)
    ]
    return remote, l2, nodes


class TestTieredLookupPath:
    def test_miss_populates_both_tiers(self):
        remote, l2, (node, _) = fleet()
        response = node.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        assert not response.served_from_cache
        assert len(node.cache) == 1
        assert len(l2) == 1

    def test_l1_hit_is_fast_and_local(self):
        remote, l2, (node, _) = fleet()
        node.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        response = node.handle(Query("mona lisa painter ok", fact_id="F"), 1.0)
        assert response.served_from_cache
        assert node.metrics.hits == 1 and node.remote.hits == 0
        # No L2 round trip on an L1 hit.
        assert response.latency < node.remote.l2_latency + 0.06

    def test_one_node_warms_the_fleet_via_l2(self):
        remote, l2, (node_a, node_b) = fleet()
        node_a.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        response = node_b.handle(Query("mona lisa painter ok", fact_id="F"), 1.0)
        assert response.fetch.truth_key == "F"  # Served from L2, not remote.
        assert node_b.remote.hits == 1
        assert remote.calls == 1  # Only node A ever went remote.

    def test_l2_hit_promotes_into_l1(self):
        remote, l2, (node_a, node_b) = fleet()
        node_a.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        node_b.handle(Query("mona lisa painter ok", fact_id="F"), 1.0)
        # Second request on node B now hits its own L1.
        node_b.handle(Query("tell me who painted mona lisa", fact_id="F"), 2.0)
        assert node_b.metrics.hits == 1 and node_b.remote.hits == 1

    def test_l2_hit_latency_includes_the_hop(self):
        remote, l2, (node_a, node_b) = fleet()
        node_a.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        response = node_b.handle(Query("mona lisa painter ok", fact_id="F"), 1.0)
        assert response.latency >= node_b.remote.l2_latency + 0.02

    def test_duplicate_l2_insert_suppressed(self):
        remote, l2, (node_a, node_b) = fleet()
        node_a.handle(Query("unique topic alpha", fact_id="A"), 0.0)
        # Node B misses everything for a different fact; both fetch remotely,
        # but the same fact is never double-inserted into L2.
        node_b.handle(Query("topic alpha unique", fact_id="A"), 0.0)
        entries = [e for e in l2.elements.values() if e.truth_key == "A"]
        assert len(entries) == 1

    def test_l2_false_hit_is_served_incorrect_and_promotes_its_key(self):
        # Without the judger, L2 matches on similarity alone: node B's
        # request for fact B is answered with node A's element for fact A.
        remote = build_remote(seed=3)
        l2 = build_semantic_cache(AsteriaConfig(capacity_items=64), seed=5)
        config = AsteriaConfig(match="ann_only")
        node_a, node_b = (
            build_tiered_engine(remote, l2, config=config, seed=5) for _ in range(2)
        )
        node_a.handle(Query("who painted the mona lisa", fact_id="A"), 0.0)
        response = node_b.handle(Query("who painted the mona lisa", fact_id="B"), 1.0)
        assert node_b.remote.hits == 1 and remote.calls == 1
        assert response.fetch.truth_key == "A"
        assert node_b.metrics.served_incorrect == 1
        assert node_b.metrics.served_correct == 0
        (promoted,) = node_b.cache.elements.values()
        assert promoted.truth_key == "A"
        # The next paraphrase hits L1 and is scored as the wrong fact too.
        again = node_b.handle(Query("who painted the mona lisa", fact_id="B"), 2.0)
        assert again.served_from_cache and again.lookup.truth_match is False

    def test_correctness_accounting(self):
        remote, l2, (node, _) = fleet()
        node.handle(Query("who won the world cup 2018", fact_id="A"), 0.0)
        response = node.handle(Query("who won the world cup 2022", fact_id="B"), 1.0)
        assert not response.served_from_cache
        assert node.metrics.served_incorrect == 0


class TestTieredProcessMode:
    def test_des_path_matches_analytic_hits(self):
        remote, l2, (node, _) = fleet()
        sim = Simulator()

        def run(query):
            process = sim.process(node.process(sim, query))
            sim.run()
            return process.value

        first = run(Query("who painted the mona lisa", fact_id="F"))
        second = run(Query("mona lisa painter ok", fact_id="F"))
        assert not first.served_from_cache
        assert second.served_from_cache
        assert node.metrics.hits == 1

    def test_fleet_hit_rate_improves_with_shared_l2(self):
        """The fleet-scale claim: a shared tier converts one node's misses
        into the whole fleet's hits."""
        from repro.workloads import SkewedWorkload, build_dataset

        dataset = build_dataset("musique", seed=1)

        def fleet_hit_rate(shared: bool) -> float:
            remote = build_remote(dataset.universe, seed=3)
            nodes = []
            if shared:
                l2 = build_semantic_cache(
                    AsteriaConfig(capacity_items=256), seed=5
                )
                for index in range(4):
                    nodes.append(
                        build_tiered_engine(remote, l2, l1_capacity=8, seed=5)
                    )
            else:
                for index in range(4):
                    own_l2 = build_semantic_cache(
                        AsteriaConfig(capacity_items=8), seed=5
                    )
                    nodes.append(
                        build_tiered_engine(remote, own_l2, l1_capacity=8, seed=5)
                    )
            workload = SkewedWorkload(dataset, seed=2)
            now = 0.0
            for index, query in enumerate(workload.queries(240)):
                response = nodes[index % 4].handle(query, now)
                now += response.latency + 0.05
            hits = sum(node.metrics.hits + node.remote.hits for node in nodes)
            total = sum(node.metrics.requests for node in nodes)
            return hits / total

        assert fleet_hit_rate(shared=True) > fleet_hit_rate(shared=False) + 0.1
