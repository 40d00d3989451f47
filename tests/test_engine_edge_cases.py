"""Edge-case tests across engine variants: recalibration in DES mode,
rate-limited baselines, tiered TTL, persistence with approximate indexes."""

import pytest

from repro.core import AsteriaConfig, CacheSnapshot, Query
from repro.factory import (
    build_asteria_engine,
    build_exact_engine,
    build_remote,
    build_semantic_cache,
    build_tiered_engine,
)
from repro.sim import Simulator


class TestRecalibrationInProcessMode:
    def test_recalibration_fires_during_des_run(self):
        config = AsteriaConfig(
            recalibration_enabled=True,
            recalibration_interval=5.0,
            recalibration_samples=3,
        )
        engine = build_asteria_engine(build_remote(), config, seed=1)
        sim = Simulator()

        def traffic():
            for step in range(30):
                yield from engine.process(
                    sim, Query("height of everest ok", fact_id="F")
                )
                yield sim.timeout(1.0)

        sim.process(traffic())
        sim.run()
        assert engine.metrics.recalibrations >= 2

    def test_finetune_in_des_mode(self):
        config = AsteriaConfig(
            recalibration_enabled=True,
            recalibration_interval=2.0,
            recalibration_samples=10,
            finetune_enabled=True,
        )
        engine = build_asteria_engine(build_remote(), config, seed=1)
        engine.recalibrator.min_records = 5
        engine.cache.sine.judger.flip_rate = 0.2
        sim = Simulator()

        def traffic():
            for step in range(40):
                yield from engine.process(
                    sim, Query("height of everest ok", fact_id="F")
                )
                yield sim.timeout(0.5)

        sim.process(traffic())
        sim.run()
        assert engine.cache.sine.judger.flip_rate < 0.2


class TestExactEngineUnderThrottle:
    def test_exact_process_respects_shared_limiter(self):
        remote = build_remote(rate_limit_per_minute=60, seed=1)
        remote.rate_limiter.__init__(rate=1.0, burst=1)  # 1/s, tiny burst
        engine = build_exact_engine(remote)
        sim = Simulator()
        responses = []

        def client(index):
            response = yield from engine.process(sim, Query(f"distinct {index}"))
            responses.append(response)

        for index in range(4):
            sim.process(client(index))
        sim.run()
        assert len(responses) == 4
        assert remote.retries > 0
        assert max(response.latency for response in responses) > 2.0


class TestTieredEdgeCases:
    def test_expired_l2_entry_not_promoted(self):
        remote = build_remote(seed=3)
        l2 = build_semantic_cache(AsteriaConfig(default_ttl=5.0), seed=5)
        node = build_tiered_engine(
            remote, l2, l1_capacity=4,
            config=AsteriaConfig(default_ttl=5.0), seed=5,
        )
        node.handle(Query("height of everest", fact_id="F"), 0.0)
        # L1 also expired by now; everything must refetch.
        response = node.handle(Query("everest height ok", fact_id="F"), 100.0)
        assert not response.served_from_cache
        assert remote.calls == 2

    def test_l1_eviction_keeps_l2_copy(self):
        remote = build_remote(seed=3)
        l2 = build_semantic_cache(AsteriaConfig(capacity_items=64), seed=5)
        node = build_tiered_engine(remote, l2, l1_capacity=1, seed=5)
        node.handle(Query("first unique topic", fact_id="A"), 0.0)
        node.handle(Query("second unique topic", fact_id="B"), 1.0)  # evicts A from L1
        assert len(node.cache) == 1
        node.handle(Query("first topic unique ok", fact_id="A"), 2.0)
        # An L2 hit is a fetch from the node's remote, the shared tier.
        assert node.remote.hits == 1
        assert remote.calls == 2  # no third fetch


class TestPersistenceAcrossIndexKinds:
    @pytest.mark.parametrize("index_kind", ["flat"])
    def test_snapshot_restores_into_any_index(self, index_kind):
        source = build_asteria_engine(build_remote(), seed=1)
        source.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        source.handle(Query("height of everest please", fact_id="G"), 1.0)
        snapshot = CacheSnapshot.of(source.cache)
        target = build_asteria_engine(
            build_remote(), seed=1, index_kind=index_kind
        )
        restored = snapshot.restore_into(target.cache, now=1.0)
        assert restored == 2
        response = target.handle(Query("mona lisa painter ok", fact_id="F"), 2.0)
        assert response.served_from_cache, index_kind


class TestMixedFeatureInteractions:
    def test_coalescing_plus_doorkeeper(self):
        """A coalesced flash crowd under a doorkeeper: one fetch, and the
        leader's admission decision governs."""
        from repro.core import DoorkeeperAdmission

        config = AsteriaConfig(coalesce_misses=True)
        engine = build_asteria_engine(build_remote(), config, seed=1)
        engine.admission = DoorkeeperAdmission(window=1000.0)
        sim = Simulator()
        for _ in range(3):
            sim.process(engine.process(sim, Query("height of everest", fact_id="F")))
        sim.run()
        assert engine.remote.calls == 1
        assert len(engine.cache) == 0  # leader's first miss: refused
        # The next wave recurs -> admitted.
        sim2 = Simulator()
        for _ in range(2):
            sim2.process(engine.process(sim2, Query("everest height ok", fact_id="F")))
        sim2.run()
        assert len(engine.cache) == 1

    def test_bypass_tool_with_prefetch_enabled(self):
        config = AsteriaConfig(
            cacheable_tools=("search",), prefetch_enabled=True
        )
        engine = build_asteria_engine(build_remote(), config, seed=1)
        engine.handle(Query("write file output", tool="file"), 0.0)
        engine.handle(Query("height of everest", tool="search", fact_id="F"), 1.0)
        assert engine.metrics.bypasses == 1
        assert len(engine.cache) == 1

    def test_ttl_scaling_with_snapshot_roundtrip(self):
        config = AsteriaConfig(default_ttl=1000.0, staticity_ttl_scaling=True)
        source = build_asteria_engine(build_remote(), config, seed=1)
        source.handle(
            Query("price of copper today", fact_id="V", staticity=2), 0.0
        )
        element = next(iter(source.cache.elements.values()))
        snapshot = CacheSnapshot.of(source.cache, now=0.0)
        target = build_asteria_engine(build_remote(), config, seed=1)
        snapshot.restore_into(target.cache, now=50.0)
        twin = next(iter(target.cache.elements.values()))
        # Scaled expiry preserved relative to the new clock.
        assert twin.expires_at - 50.0 == pytest.approx(element.expires_at)
