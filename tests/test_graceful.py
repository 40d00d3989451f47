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
from repro.factory import build_asteria_engine, build_async_engine, build_remote
from repro.serving.aio import run_open_loop
from repro.serving.load import run_serial


def _queries(n):
    return [
        Query(f"stoppable fact number {i % 12} of the universe", fact_id=f"F{i % 12}")
        for i in range(n)
    ]


def test_serial_loop_stops_early_and_reports_partial_run():
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    stop = threading.Event()
    finished = threading.Event()
    n = 4000
    queries = _queries(n)

    def tripwire():
        # Fires from another thread mid-run, like a signal handler would — on
        # progress, not on a clock, which a fast host outruns and a loaded one
        # does not reach.
        while engine.metrics.requests < 10 and not finished.is_set():
            time.sleep(0.001)
        stop.set()

    watcher = threading.Thread(target=tripwire, daemon=True)
    watcher.start()
    try:
        report = run_serial(engine, queries, time_step=0.01, stop=stop)
    finally:
        finished.set()
        watcher.join()
    assert stop.is_set()
    assert 0 < report.requests < n
    # The report is internally consistent for the partial run.
    assert report.hits + report.misses == report.requests
    assert engine.metrics.requests == report.requests


def test_serial_loop_without_stop_is_unchanged():
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    report = run_serial(engine, _queries(50), time_step=0.01, stop=threading.Event())
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


def test_async_open_loop_stop_never_set_is_unchanged():
    engine = build_async_engine(build_remote(seed=0), seed=0)

    async def drive():
        return await run_open_loop(
            engine, _queries(60), rate=5000.0, time_step=0.01, stop=asyncio.Event()
        )

    report = asyncio.run(drive())
    assert report.requests == 60
