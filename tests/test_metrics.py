"""Tests for latency stats and engine metrics."""

import pytest

from repro.core import EngineMetrics, LatencyStats


class TestLatencyStats:
    def test_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p99 == 0.0
        assert stats.max == 0.0

    def test_mean_and_total(self):
        stats = LatencyStats()
        for value in (1.0, 2.0, 3.0):
            stats.add(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.total == pytest.approx(6.0)

    def test_percentiles(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.add(float(value))
        assert stats.p50 == pytest.approx(50.5)
        assert stats.percentile(99) == pytest.approx(99.01)
        assert stats.max == 100.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-0.1)

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(101)

    def test_samples_copy_is_isolated(self):
        stats = LatencyStats()
        stats.add(1.0)
        samples = stats.samples()
        samples.append(99.0)
        assert stats.count == 1


class TestEngineMetrics:
    def test_hit_rate_excludes_bypasses(self):
        metrics = EngineMetrics()
        metrics.record_lookup("hit")
        metrics.record_lookup("miss")
        metrics.record_lookup("bypass")
        assert metrics.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty_is_zero(self):
        assert EngineMetrics().hit_rate == 0.0

    def test_accuracy(self):
        metrics = EngineMetrics()
        metrics.served_correct = 9
        metrics.served_incorrect = 1
        assert metrics.accuracy == pytest.approx(0.9)

    def test_accuracy_empty_is_one(self):
        assert EngineMetrics().accuracy == 1.0

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            EngineMetrics().record_lookup("unknown")

    def test_reset_zeros_everything(self):
        metrics = EngineMetrics()
        metrics.record_lookup("hit")
        metrics.total_latency.add(1.0)
        metrics.reset()
        assert metrics.requests == 0
        assert metrics.total_latency.count == 0

    def test_summary_round_trips_key_fields(self):
        metrics = EngineMetrics()
        metrics.record_lookup("hit")
        metrics.total_latency.add(0.5)
        summary = metrics.summary()
        assert summary["requests"] == 1
        assert summary["hit_rate"] == 1.0
        assert summary["mean_latency"] == 0.5


class TestServedFraction:
    """The one definition, on a whole run or on a window of one."""

    def test_nothing_offered_is_fully_served(self):
        metrics = EngineMetrics()
        assert metrics.offered == 0
        assert metrics.served_fraction == 1.0
        assert metrics.stale_fraction == 0.0

    def test_fresh_and_stale_answers_count_as_served(self):
        metrics = EngineMetrics(
            requests=6, stale_hits=2, failed_requests=1, overloaded=2, deadline_exceeded=1
        )
        assert metrics.offered == 12
        assert metrics.served_fraction == pytest.approx(8 / 12)
        assert metrics.stale_fraction == pytest.approx(2 / 8)

    def test_since_is_a_window_with_the_same_definitions(self):
        metrics = EngineMetrics(requests=10, hits=8, misses=2)
        before = metrics.counters()
        assert "total_latency" not in before  # counters only, no reservoirs
        metrics.requests += 3
        metrics.hits += 1
        metrics.misses += 2
        metrics.failed_requests += 1
        window = metrics.since(before)
        assert (window.requests, window.hits, window.misses) == (3, 1, 2)
        assert window.hit_rate == pytest.approx(1 / 3)
        assert window.served_fraction == pytest.approx(3 / 4)
        assert window.total_latency.count == 0


class TestOutcomeConservation:
    """Every request offered to an engine ends as exactly one outcome, in
    the counters and — on the paths that open a root span — in the trace:
    root spans by ``outcome`` and :class:`EngineMetrics` both sum to the
    offered load."""

    @staticmethod
    def _root_outcomes(tracer):
        from collections import Counter

        return Counter(
            span.attrs["outcome"] for span in tracer.spans() if span.name == "request"
        )

    def _assert_conserved(self, tracer, metrics, offered):
        assert metrics.offered == offered
        assert metrics.hits + metrics.misses + metrics.bypasses == metrics.requests
        roots = self._root_outcomes(tracer)
        assert roots["hit"] == metrics.hits
        assert roots["miss"] == metrics.misses
        assert roots["bypass"] == metrics.bypasses
        assert roots["stale_hit"] == metrics.stale_hits
        assert roots["failed"] == metrics.failed_requests
        # A deadline abandons the flow mid-flight; a backpressure rejection
        # never starts one, so it is the one outcome with no root span.
        assert roots["abandoned"] == metrics.deadline_exceeded
        assert sum(roots.values()) == offered - metrics.overloaded

    def test_blackout_run_conserves_degraded_outcomes(self):
        """A mid-run blackout produces stale hits and explicit failures;
        every one of them is accounted for."""
        from repro.core import Query
        from repro.core.config import AsteriaConfig
        from repro.core.resilience import CircuitBreaker, ResilienceManager
        from repro.factory import build_asteria_engine, build_remote
        from repro.network import FaultInjector
        from repro.obs import Tracer

        engine = build_asteria_engine(
            build_remote(
                seed=0,
                fault_injector=FaultInjector(blackouts=[(1.0, 2.0)], seed=0),
            ),
            # A short TTL forces warm keys to re-fetch during the blackout:
            # the fetch fails, the last-known-good copy serves stale.
            config=AsteriaConfig(default_ttl=0.5),
            seed=0,
            resilience=ResilienceManager(
                breaker=CircuitBreaker(
                    failure_threshold=1.0, window=1024, min_samples=1024
                ),
                seed=0,
            ),
        )
        tracer = Tracer()
        engine.set_tracer(tracer)
        for i in range(300):
            if 100 <= i < 200 and i % 10 == 0:
                # Cold keys first seen mid-blackout: no stale fallback.
                rank = 100 + i
            else:
                # Warm keys recur throughout and expire into re-fetches.
                rank = (i * 7) % 12
            engine.handle(
                Query(f"stress fact number {rank} of it", fact_id=f"F{rank}"),
                now=i * 0.01,
            )
        metrics = engine.metrics
        assert metrics.stale_hits > 0  # warm keys degraded to stale
        assert metrics.failed_requests > 0  # cold keys had no fallback
        self._assert_conserved(tracer, metrics, offered=300)

    def test_async_rejections_conserved(self):
        """Overloaded and deadline-exceeded requests never produce a
        response, but each is still exactly one counted outcome."""
        import asyncio

        from repro.core import Query
        from repro.factory import build_async_engine, build_remote
        from repro.obs import Tracer
        from repro.serving.aio import run_open_loop

        engine = build_async_engine(
            build_remote(seed=0),
            seed=0,
            max_inflight=1,
            io_pause_scale=0.002,
        )
        tracer = Tracer()
        engine.set_tracer(tracer)
        # Unique queries -> every request is a miss with a real (wall) pause.
        queries = [Query(f"unique topic {i} zz", fact_id=f"U{i}") for i in range(24)]

        async def drive():
            report = await run_open_loop(engine, queries, rate=10_000.0)
            # A second wave under an impossible deadline: misses must pause
            # ~0.6-1 ms of wall time, so a 10 us budget always expires.
            for i in range(4):
                await engine.serve(
                    Query(f"deadline topic {i} zz", fact_id=f"D{i}"),
                    now=1.0 + i * 0.01,
                    deadline=1e-5,
                )
            await engine.drain()
            return report

        report = asyncio.run(drive())
        metrics = engine.metrics
        assert metrics.overloaded > 0
        assert metrics.deadline_exceeded > 0
        self._assert_conserved(tracer, metrics, offered=28)
        # The load report is that same accounting over the first wave.
        assert report.requests == 24
        assert report.completed + report.overloaded == 24
        assert report.served_fraction == pytest.approx(report.completed / 24)


class TestMemoryEnvelope:
    """Satellite regression: a 10^6-request run must stay inside a fixed
    memory envelope. Every per-request sink is bounded — the latency
    reservoir and the span store — so retained state is a function of the
    configured caps, never of run length."""

    N = 1_000_000

    def test_million_request_run_stays_bounded(self):
        import sys

        from repro.obs import Tracer

        stats = LatencyStats()
        tracer = Tracer(max_spans=10_000)
        clock = tracer.clock
        for i in range(self.N):
            stats.add((i % 997) * 1e-6)
            t0 = clock()
            tracer.record_leaf("embed", t0)

        # Exact aggregates survive the bound ...
        assert stats.count == self.N
        expected = (
            (self.N // 997) * sum(range(997)) + sum(range(self.N % 997))
        ) * 1e-6
        assert stats.total == pytest.approx(expected)
        assert len(tracer) == 10_000
        assert tracer.dropped == self.N - 10_000

        # ... while retained state stays at the configured caps.
        assert len(stats.samples()) == stats.max_samples
        assert len(tracer.spans()) == 10_000

        # Container-level envelope: the two sinks' retained stores sum to
        # low single-digit MB. An unbounded regression (list append per
        # request) would put any one of them at tens of MB.
        envelope = sys.getsizeof(stats._samples) + sys.getsizeof(tracer._spans)
        assert envelope < 4 * 1024 * 1024

    def test_ten_million_entry_arena_fill_stays_in_envelope(self):
        """A 10^7-slot arena holds its stated envelope: per slot, 4 * dim
        bytes of row, an 8-byte allocation stamp and a 1-byte live flag
        (210 MB at dim=3), all reserved up front, and a row at the far end
        is addressable without growing."""
        import numpy as np

        from repro.core.arena import EmbeddingArena

        entries = 10_000_000
        dim = 3
        arena = EmbeddingArena(dim, initial_capacity=entries)
        held = arena._matrix.nbytes + arena._stamps.nbytes + arena._live_mask.nbytes
        assert held == entries * (4 * dim + 8 + 1)
        arena._next_fresh = entries - 1  # skip to the last fresh slot
        slot = arena.allocate(np.ones(dim, dtype=np.float32))
        assert slot == entries - 1 and arena.stamp(slot) == 1
        assert arena.grows == 0  # the stated capacity was honoured exactly
        assert arena.get(slot).shape == (dim,)
