"""The TCP front door end to end: ProcServer + ProcClient over a real socket.

Boots the server on an ephemeral port inside the test's event loop, drives
an open-loop client workload through real frames, checks every request is
served, then exercises health/metrics/ping and the graceful drain.
"""

import asyncio

import pytest

from repro.core import Query
from repro.factory import build_proc_engine, build_remote
from repro.serving.proc.client import (
    ProcClient,
    ProcClientError,
    run_open_loop_socket,
)
from repro.serving.proc.server import ProcServer


def _queries(n, population=8):
    return [
        Query(f"served fact number {i % population} of the universe", fact_id=f"F{i % population}")
        for i in range(n)
    ]


def _server(workers=2, **engine_kwargs):
    engine = build_proc_engine(
        build_remote(seed=0), seed=0, workers=workers, **engine_kwargs
    )
    return ProcServer(engine, host="127.0.0.1", port=0)


def test_server_serves_open_loop_workload_fully():
    server = _server()

    async def drive():
        await server.start()
        client = await ProcClient.connect("127.0.0.1", server.port)
        try:
            report = await run_open_loop_socket(
                client, _queries(80), rate=2000.0, time_step=0.01
            )
            health = await client.health()
            metrics = await client.metrics()
            assert await client.ping() == "pong"
        finally:
            await client.aclose()
            await server.shutdown()
        return report, health, metrics

    report, health, metrics = asyncio.run(drive())
    assert report.requests == 80
    assert report.served_fraction == 1.0
    assert report.outcomes == {"ok": 80}
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert metrics["requests"] == 80
    assert metrics["hits"] + metrics["misses"] == 80
    assert server.requests_served == 80


def test_server_pipelines_many_clients():
    server = _server()

    async def drive():
        await server.start()
        clients = [
            await ProcClient.connect("127.0.0.1", server.port) for _ in range(3)
        ]
        try:
            outcomes = await asyncio.gather(
                *(
                    client.serve(query, now=i * 0.01)
                    for i, (client, query) in enumerate(
                        zip(clients * 10, _queries(30))
                    )
                )
            )
        finally:
            for client in clients:
                await client.aclose()
            await server.shutdown()
        return outcomes

    outcomes = asyncio.run(drive())
    assert len(outcomes) == 30
    assert all(outcome["status"] == "ok" for outcome in outcomes)
    assert all(outcome["result"] for outcome in outcomes)


def test_server_reports_unknown_op_without_desync():
    server = _server(workers=1)

    async def drive():
        await server.start()
        client = await ProcClient.connect("127.0.0.1", server.port)
        try:
            with pytest.raises(ProcClientError):
                await client.call("explode")
            # The connection is still healthy for the next request.
            assert await client.ping() == "pong"
        finally:
            await client.aclose()
            await server.shutdown()

    asyncio.run(drive())


def test_request_stop_drains_in_flight_requests():
    server = _server(io_pause_scale=0.05)

    async def drive():
        await server.start()
        client = await ProcClient.connect("127.0.0.1", server.port)
        tasks = [
            asyncio.ensure_future(client.serve(query, now=0.0))
            for query in _queries(6, population=6)
        ]
        await asyncio.sleep(0.01)  # requests are on the wire, fetches pending
        server.request_stop()
        run_task = asyncio.ensure_future(server.shutdown())
        outcomes = await asyncio.gather(*tasks)
        await run_task
        await client.aclose()
        return outcomes

    outcomes = asyncio.run(drive())
    # Every request that reached the server before the stop was answered.
    assert len(outcomes) == 6
    assert all(outcome["status"] == "ok" for outcome in outcomes)
    assert not server.engine.pool.processes
