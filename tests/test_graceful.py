"""Graceful early stop of the load loops (satellite).

Every stress/serve entry point can be interrupted by SIGINT/SIGTERM; the
CLI wires those signals to the ``stop`` events tested here. The contract:
setting ``stop`` ends the loop early, in-flight work completes, and the
returned report covers exactly the requests that actually ran — so the
benchmark/metrics artifacts written afterwards are complete and honest.
"""

import asyncio
import threading
import time

from repro.core import Query
from repro.factory import (
    build_async_engine,
    build_concurrent_engine,
    build_remote,
)
from repro.serving.aio import run_closed_loop, run_open_loop


def _queries(n):
    return [
        Query(f"stoppable fact number {i % 12} of the universe", fact_id=f"F{i % 12}")
        for i in range(n)
    ]


def test_thread_closed_loop_stops_early_and_reports_partial_run():
    engine = build_concurrent_engine(
        build_remote(seed=0), seed=0, shards=2, workers=2, io_pause_scale=0.01
    )
    stop = threading.Event()
    finished = threading.Event()
    n = 4000
    queries = _queries(n)

    def tripwire():
        # Fires from another thread mid-run, like a signal handler would — on
        # progress, not on a clock, which a fast host outruns and a loaded one
        # does not reach (the run is ~100x longer than the 1 ms poll).
        while engine.metrics.requests < 10 and not finished.is_set():
            time.sleep(0.001)
        stop.set()

    watcher = threading.Thread(target=tripwire, daemon=True)
    watcher.start()
    try:
        with engine:
            report = engine.run_closed_loop(queries, time_step=0.01, stop=stop)
    finally:
        finished.set()
        watcher.join()
    assert stop.is_set()
    assert 0 < report.requests < n
    # The report is internally consistent for the partial run.
    assert report.hits + report.misses == report.requests
    assert engine.metrics.requests == report.requests


def test_thread_closed_loop_without_stop_is_unchanged():
    engine = build_concurrent_engine(build_remote(seed=0), seed=0, shards=2, workers=2)
    with engine:
        report = engine.run_closed_loop(_queries(50), time_step=0.01)
    assert report.requests == 50


def test_async_open_loop_stops_early_but_gathers_in_flight():
    engine = build_async_engine(build_remote(seed=0), seed=0, io_pause_scale=0.01)
    n = 500

    async def drive():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.call_later(0.05, stop.set)
        return await run_open_loop(
            engine, _queries(n), rate=1000.0, time_step=0.01, stop=stop
        )

    report = asyncio.run(drive())
    assert 0 < report.requests < n
    assert report.completed == report.requests  # nothing launched was dropped
    assert engine.metrics.requests == report.requests


def test_async_closed_loop_stops_early():
    engine = build_async_engine(build_remote(seed=0), seed=0, io_pause_scale=0.05)
    n = 4000

    async def drive():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.call_later(0.05, stop.set)
        return await run_closed_loop(
            engine, _queries(n), concurrency=4, time_step=0.01, stop=stop
        )

    report = asyncio.run(drive())
    assert 0 < report.requests < n
    assert engine.metrics.requests == report.requests


def test_async_open_loop_stop_never_set_is_unchanged():
    engine = build_async_engine(build_remote(seed=0), seed=0)

    async def drive():
        return await run_open_loop(
            engine, _queries(60), rate=5000.0, time_step=0.01, stop=asyncio.Event()
        )

    report = asyncio.run(drive())
    assert report.requests == 60
