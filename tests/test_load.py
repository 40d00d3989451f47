"""`repro.serving.load`: one report, one metrics window, one arrival pacer —
shared by the serial, asyncio and socket drivers."""

import asyncio
import time

import pytest

from repro.core import EngineMetrics, Query
from repro.factory import build_asteria_engine, build_async_engine, build_remote
from repro.serving.aio import run_open_loop
from repro.serving.load import LoadReport, arrivals, load_report, run_serial
from repro.serving.proc.client import ProcClientError, run_open_loop_socket


def queries(n, population=10):
    return [
        Query(f"loaded fact number {i % population} of the set", fact_id=f"F{i % population}")
        for i in range(n)
    ]


class TestLoadReport:
    def test_every_field_is_derived_from_the_delta(self):
        delta = EngineMetrics(
            requests=6, hits=4, misses=2, stale_hits=2, failed_requests=1,
            overloaded=2, deadline_exceeded=1, coalesced_misses=1,
        )
        report = load_report(delta, "open", 2.0, remote_calls=3, walls=[0.1, 0.3], rate=50.0)
        assert report.requests == 12
        assert (report.completed, report.stale_served, report.failed) == (6, 2, 1)
        assert (report.overloaded, report.deadline_exceeded) == (2, 1)
        assert report.served_fraction == delta.served_fraction == pytest.approx(8 / 12)
        assert report.hit_rate == delta.hit_rate == pytest.approx(4 / 6)
        assert report.throughput_rps == pytest.approx(8 / 2.0)  # answered per second
        assert report.p50_wall == pytest.approx(0.2)
        assert report.outcomes == {
            "ok": 6, "stale_hit": 2, "failed": 1, "overloaded": 2, "deadline_exceeded": 1,
        }

    def test_an_empty_run_is_fully_served_on_every_driver(self):
        """The socket driver used to say 0.0 here where the others said 1.0."""
        assert load_report(EngineMetrics(), "open", 0.0).served_fraction == 1.0
        sync = run_serial(build_asteria_engine(build_remote(), seed=0), [])
        aio = asyncio.run(
            run_open_loop(build_async_engine(build_remote(), seed=0), [], rate=100.0)
        )
        socket = asyncio.run(run_open_loop_socket(None, [], rate=100.0))
        for report in (sync, aio, socket):
            assert isinstance(report, LoadReport)
            assert report.requests == 0 and report.served_fraction == 1.0
            assert report.p99_wall is None  # nothing was timed

    def test_drivers_agree_on_one_workload(self):
        """Same warm trace through two schedulers — the serial loop and the
        open loop, every request in flight at once — same accounting."""
        sync_engine = build_asteria_engine(build_remote(seed=1), seed=1)
        aio_engine = build_async_engine(build_remote(seed=1), seed=1)

        async def warm_then_load():
            for i, query in enumerate(queries(10)):  # the same warm-up, one at a time
                await aio_engine.serve(query, i * 0.01)
            return await run_open_loop(aio_engine, queries(60), rate=1e6, start=1.0)

        run_serial(sync_engine, queries(10), time_step=0.01)
        sync = run_serial(sync_engine, queries(60), start=1.0)
        aio = asyncio.run(warm_then_load())
        assert (sync.mode, sync.concurrency) == ("closed", 1)
        assert (aio.mode, aio.rate) == ("open", 1e6)
        for name in ("requests", "completed", "hits", "misses", "remote_calls", "hit_rate"):
            assert getattr(sync, name) == getattr(aio, name), name
        assert sync.requests == sync.hits + sync.misses == 60

    def test_a_warm_engine_reports_only_the_window(self):
        engine = build_asteria_engine(build_remote(seed=1), seed=1)
        first = run_serial(engine, queries(40))
        second = run_serial(engine, queries(40), start=1.0)
        assert first.misses > second.misses  # the second pass found it warm
        assert first.misses + second.misses == engine.metrics.misses
        assert second.requests == 40 and engine.metrics.requests == 80


class _ScriptedClient:
    """Stands in for ProcClient: answers from a script, never sleeps."""

    def __init__(self, script):
        self.script = iter(script)

    async def serve(self, query, now=0.0, deadline=None):
        status = next(self.script)
        if status == "lost":
            raise ProcClientError("connection lost")
        return {"status": status}


class TestSocketDriver:
    def test_outcomes_become_the_one_report(self):
        script = ["ok", "ok", "stale_hit", "failed", "overloaded", "lost"]
        report = asyncio.run(
            run_open_loop_socket(_ScriptedClient(script), queries(6), rate=10_000.0)
        )
        assert report.mode == "open" and report.rate == 10_000.0
        assert report.requests == 6
        # A request the link lost for good is a failed request.
        assert report.outcomes == {"ok": 2, "stale_hit": 1, "failed": 2, "overloaded": 1}
        assert report.served_fraction == pytest.approx(3 / 6)

    def test_stop_wakes_the_pacer_mid_gap(self):
        """One arrival per second; a stop at 50 ms must not wait out the gap
        (the socket driver used to sleep through it)."""

        async def drive():
            stop = asyncio.Event()
            asyncio.get_running_loop().call_later(0.05, stop.set)
            begin = time.perf_counter()
            report = await run_open_loop_socket(
                _ScriptedClient(["ok"] * 5), queries(5), rate=1.0, stop=stop
            )
            return report, time.perf_counter() - begin

        report, elapsed = asyncio.run(drive())
        assert report.requests == 1
        assert elapsed < 0.5


class TestArrivals:
    def test_paces_at_the_rate_whatever_the_consumer_does(self):
        async def drive():
            begin = time.perf_counter()
            stamps = [time.perf_counter() - begin async for _ in arrivals(5, rate=100.0)]
            return stamps

        stamps = asyncio.run(drive())
        assert len(stamps) == 5
        assert stamps[-1] >= 4 / 100.0  # never early
        assert stamps[-1] < 0.5

    def test_stop_already_set_yields_nothing(self):
        async def drive():
            stop = asyncio.Event()
            stop.set()
            return [i async for i in arrivals(5, rate=100.0, stop=stop)]

        assert asyncio.run(drive()) == []

    def test_rate_must_be_positive(self):
        async def drive():
            return [i async for i in arrivals(0, rate=0.0)]

        with pytest.raises(ValueError, match="rate"):
            asyncio.run(drive())
