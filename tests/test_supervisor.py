"""Self-healing proc tier: supervision, fault domains, warm recovery.

These tests SIGKILL (or SIGSTOP) real worker processes, directly or through
the seeded :class:`ProcFaultInjector`, and assert the contract: no raw
:class:`WorkerError` ever escapes ``serve()``, healthy shards are untouched
by a sibling's death, a dead or hung worker comes back (warm when
persisted), and a crash-looping shard degrades permanently instead of
flapping forever.
"""

import asyncio
import os
import signal

import pytest

from repro.core import Query
from repro.factory import build_proc_engine, build_remote
from repro.serving.proc import ProcFaultInjector
from repro.serving.proc import engine as proc_engine
from repro.serving.proc import supervisor

VALID_STATUSES = {"ok", "stale_hit", "failed", "overloaded", "deadline_exceeded"}


@pytest.fixture
def fast(monkeypatch):
    """Fast supervisor timings, so recovery fits inside a test budget."""
    monkeypatch.setattr(supervisor, "PING_INTERVAL", 0.05)
    monkeypatch.setattr(supervisor, "PING_TIMEOUT", 1.0)
    monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(supervisor, "BACKOFF_MAX", 0.05)
    monkeypatch.setattr(proc_engine, "SHARD_OPEN_SECONDS", 0.1)


def _queries(n, population=8):
    return [
        Query(
            f"stress fact number {i % population} of the universe",
            fact_id=f"F{i % population}",
        )
        for i in range(n)
    ]


def _shard_queries(pool, shard, n):
    """``n`` distinct queries that route to ``shard``."""
    picked = []
    i = 0
    while len(picked) < n:
        text = f"fault domain probe {i} stays local"
        if pool.shard_for(text) == shard:
            picked.append(Query(text, fact_id=f"P{i}"))
        i += 1
    return picked


async def _await_restarts(engine, count, timeout=30.0):
    for _ in range(int(timeout / 0.05)):
        if engine.metrics.worker_restarts >= count:
            return
        await asyncio.sleep(0.05)
    raise AssertionError(
        f"worker_restarts stuck at {engine.metrics.worker_restarts}, "
        f"wanted {count} (supervisor={engine.pool.supervisor!r})"
    )


def test_supervisor_respawns_after_sigkill(fast):
    faults = ProcFaultInjector(kill_at=10)
    engine = build_proc_engine(build_remote(seed=0), seed=0, workers=2, proc_faults=faults)

    async def drive():
        outcomes = []
        async with engine:
            for i, query in enumerate(_queries(40)):
                outcomes.append(await engine.serve(query, now=i * 0.01))
            await _await_restarts(engine, 1)
            # Post-recovery traffic lands on the respawned worker.
            for i, query in enumerate(_queries(10)):
                outcomes.append(await engine.serve(query, now=1.0 + i * 0.01))
        return outcomes

    outcomes = asyncio.run(drive())
    assert faults.kills == 1
    assert engine.metrics.worker_restarts == 1
    assert all(o.status in VALID_STATUSES for o in outcomes)
    # The kill cost at most the degraded window, never the run.
    served = sum(o.status in ("ok", "stale_hit") for o in outcomes)
    assert served / len(outcomes) >= 0.9
    assert engine.pool.supervisor.state == ["up", "up"]


def test_supervisor_respawns_a_hung_worker(fast, monkeypatch):
    """A stopped worker keeps its connection open, so only the heartbeat's
    ping timeout can notice it: the shard is reported dead, the stopped
    process is killed and reaped, a new worker takes its place, and the
    requests parked on the hung one resolve degraded meanwhile."""
    monkeypatch.setattr(supervisor, "PING_TIMEOUT", 0.2)
    engine = build_proc_engine(build_remote(seed=0), seed=0, workers=2)

    async def drive():
        async with engine:
            probes = _shard_queries(engine.pool, 0, 4)
            hung = engine.pool.processes[0]
            os.kill(hung.pid, signal.SIGSTOP)
            try:
                # Bounded: a heartbeat that never notices parks these forever.
                parked = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            engine.serve(query, now=i * 0.01)
                            for i, query in enumerate(probes)
                        )
                    ),
                    30.0,
                )
                await _await_restarts(engine, 1)
                reaped = not hung.is_alive()
                after = [
                    await engine.serve(query, now=1.0 + i * 0.01)
                    for i, query in enumerate(probes)
                ]
            finally:
                if hung.is_alive():  # a failing run must still unwind
                    os.kill(hung.pid, signal.SIGKILL)
            return reaped, parked, after

    reaped, parked, after = asyncio.run(drive())
    assert reaped  # _reap killed the stopped process
    assert engine.metrics.worker_restarts == 1
    assert engine.pool.supervisor.state == ["up", "up"]
    assert [o.status for o in parked + after] == ["ok"] * 8
    assert engine.metrics.shard_down_fetches == 4  # only the parked four


def test_healthy_shard_stats_unchanged_by_kill(fast):
    """Shard 1 must not notice shard 0's death: its stats after an identical
    sequential workload are byte-identical with and without the kill."""

    def run(kill):
        faults = (
            ProcFaultInjector(kill_at=8) if kill else None
        )
        engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=2, proc_faults=faults
        )

        async def drive():
            async with engine:
                for i, query in enumerate(_queries(30)):
                    outcome = await engine.serve(query, now=i * 0.01)
                    assert outcome.status in VALID_STATUSES
                if kill:
                    await _await_restarts(engine, 1)
                stats = await engine.pool.stats()
            return stats

        return asyncio.run(drive())

    baseline = run(kill=False)
    chaotic = run(kill=True)
    assert chaotic[1] == baseline[1]


def test_warm_restore_after_respawn_with_persist(tmp_path, fast):
    """A persisted shard comes back warm: the journaled entries hit again
    after the SIGKILL+respawn; without --persist the same respawn is cold."""

    def run(persist_dir):
        engine = build_proc_engine(
            build_remote(seed=0),
            seed=0,
            workers=1,
            persist_dir=persist_dir,
            fsync_every=1,
        )
        queries = _queries(12, population=12)

        async def drive():
            async with engine:
                for i, query in enumerate(queries):
                    await engine.serve(query, now=i * 0.01)
                primed_hits = engine.metrics.hits
                os.kill(engine.pool.processes[0].pid, signal.SIGKILL)
                await _await_restarts(engine, 1)
                for i, query in enumerate(queries):
                    await engine.serve(query, now=0.5 + i * 0.01)
                return engine.metrics.hits - primed_hits

        return asyncio.run(drive())

    warm_hits = run(str(tmp_path / "store"))
    cold_hits = run(None)
    assert warm_hits > 0  # the replayed journal answered the replays
    assert warm_hits > cold_hits  # ...and the lift is the persistence tier's


def test_crash_loop_cap_goes_permanent_degraded(fast, monkeypatch):
    monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)  # first death is the cap
    engine = build_proc_engine(build_remote(seed=0), seed=0, workers=2)

    async def drive():
        async with engine:
            probes = _shard_queries(engine.pool, 0, 6)
            for i, query in enumerate(probes[:2]):
                assert (await engine.serve(query, now=i * 0.01)).status == "ok"
            os.kill(engine.pool.processes[0].pid, signal.SIGKILL)
            supervisor = engine.pool.supervisor
            for _ in range(200):
                if supervisor.permanent[0]:
                    break
                await asyncio.sleep(0.05)
            assert supervisor.permanent[0]
            assert supervisor.state[0] == "dead"
            # The shard is gone for good but its requests still resolve.
            outcomes = [
                await engine.serve(query, now=1.0 + i * 0.01)
                for i, query in enumerate(probes[2:])
            ]
        return outcomes

    outcomes = asyncio.run(drive())
    assert engine.metrics.worker_restarts == 0
    assert all(o.status in VALID_STATUSES for o in outcomes)
    assert engine.metrics.shard_down_fetches + engine.metrics.stale_hits > 0


def test_worker_error_never_escapes_without_supervision(monkeypatch):
    """A dying client fails every pending waiter with the *shared*
    connection-lost error, yet the engine accounts the shard failure exactly
    once and every concurrent request resolves degraded."""
    # Stay open: no half-open probes mid-test.
    monkeypatch.setattr(proc_engine, "SHARD_OPEN_SECONDS", 30.0)
    faults = ProcFaultInjector()
    engine = build_proc_engine(
        build_remote(seed=0), seed=0, workers=2, supervise=False, proc_faults=faults
    )

    async def drive():
        async with engine:
            probes = _shard_queries(engine.pool, 0, 4)
            # Shard 0's worker is stopped: these four park as pending
            # waiters on its client.
            os.kill(engine.pool.processes[0].pid, signal.SIGSTOP)
            tasks = [
                asyncio.ensure_future(engine.serve(query, now=0.0))
                for query in probes
            ]
            await asyncio.sleep(0.3)
            assert not any(task.done() for task in tasks)
            assert faults.kill_worker(engine.pool)
            # gather() without return_exceptions: an escaping WorkerError
            # would fail the whole drive.
            return await asyncio.gather(*tasks)

    outcomes = asyncio.run(drive())
    assert [o.status for o in outcomes] == ["ok"] * 4  # bypass fetches
    assert engine.metrics.shard_down_fetches == 4
    # One connection loss == one shard failure, not one per waiter.
    assert engine.shard_failures[0] == 1
    assert engine.metrics.worker_restarts == 0


def test_client_reconnects_once_after_server_drop():
    """Satellite: ProcClient built via connect() re-dials once when the link
    drops and replays the interrupted call."""
    from repro.serving.proc.client import ProcClient
    from repro.serving.proc.protocol import JsonCodec, read_frame, write_frame

    codec = JsonCodec()

    async def drive():
        connections = {"count": 0}

        async def handle(reader, writer):
            connections["count"] += 1
            flaky = connections["count"] == 1
            while True:
                payload = await read_frame(reader)
                if payload is None:
                    break
                request_id, op, body = codec.loads(payload)
                write_frame(writer, codec.dumps([request_id, True, "pong"]))
                await writer.drain()
                if flaky:
                    break  # first connection dies after one reply
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ProcClient.connect("127.0.0.1", port)
        try:
            assert await client.call("ping") == "pong"
            await asyncio.sleep(0.05)  # let the drop land
            assert await client.call("ping") == "pong"  # retried transparently
            assert client.reconnects == 1
            assert connections["count"] == 2
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(drive())
