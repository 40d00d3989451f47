"""Self-healing for the proc tier: worker supervision and seeded chaos.

:class:`WorkerSupervisor` is owned by a :class:`~repro.serving.proc.pool.
WorkerPool` and closes the loop the pool's launch path leaves open: a shard
worker that dies (SIGKILL, OOM, segfault) is *detected* — by the
:class:`~repro.serving.proc.pool.ShardClient` connection-loss callback and
by a lightweight heartbeat that pings every shard on an interval — then
*reaped* (the zombie joined off-loop in an executor) and *respawned* from
its original :class:`~repro.serving.proc.worker.WorkerSpec` with exponential
backoff. A respawned worker rebuilds its shard exactly as launch did; when
the spec carries a ``persist_dir``, the worker's own attach path
(PR 8's snapshot + journal machinery) warm-restores the shard, and the
hello frame reports what came back so the recovery is observable.

Per-shard state machine::

    up ──death detected──▶ respawning ──hello + attach──▶ up
                               │  ▲________________________│
                               │   (next death resets the cycle; the
                               │    consecutive-crash counter clears
                               │    after ``STABLE_SECONDS`` of uptime)
                               └──``MAX_RESTARTS`` consecutive crashes──▶ dead
                                   (permanent: the engine routes the shard
                                    to its degraded path forever)

The timings are the module constants below, one value each; they are read
where they are used, so a test can patch them on the module.

The supervisor never touches request routing itself — it exposes callbacks
(:attr:`on_down`, :attr:`on_restart`) that
:class:`~repro.serving.proc.engine.ProcAsteriaEngine` wires to its
per-shard circuit breakers, so detection, routing, and recovery stay in
their own layers.

:class:`ProcFaultInjector` is the chaos hook the ``--chaos-workers`` stress
mode drives: SIGKILL a chosen worker at a seeded request index.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

#: Wall seconds between heartbeat sweeps; each sweep pings every up shard.
PING_INTERVAL = 0.25
#: Wall seconds one heartbeat ping may take. This is what catches a *hung*
#: worker: the connection is alive, but nothing answers.
PING_TIMEOUT = 2.0
#: Respawn delay is ``min(BACKOFF_BASE * 2**consecutive, BACKOFF_MAX)``.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0
#: Consecutive-crash cap: a shard that crashes this many times without
#: ``STABLE_SECONDS`` of healthy uptime in between goes permanently dead.
MAX_RESTARTS = 5
#: Uptime after which a shard's consecutive-crash counter resets — a worker
#: that crashes once a day is not crash-looping.
STABLE_SECONDS = 5.0


def _reap(process, timeout: float = 5.0) -> None:
    """Make sure a dead-or-dying worker is gone before its successor spawns
    (two processes journaling one shard directory would interleave)."""
    if process.is_alive():
        process.kill()
    process.join(timeout)


class WorkerSupervisor:
    """Detect, reap, and respawn dead shard workers for one pool.

    ``pool`` is the owning :class:`WorkerPool`; the supervisor spawns
    through its :meth:`~repro.serving.proc.pool.WorkerPool.spawn_worker` /
    :meth:`~repro.serving.proc.pool.WorkerPool.replace_client` seam. A shard
    is reported dead by its connection's loss, by the request path, or by a
    heartbeat ping that errors or outlasts :data:`PING_TIMEOUT`.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        n = pool.n_shards
        #: Per-shard machine state: "up" | "respawning" | "dead".
        self.state = ["up"] * n
        #: Successful respawns per shard (lifetime).
        self.restarts = [0] * n
        self.total_restarts = 0
        #: Consecutive crashes since the last stable window.
        self.consecutive = [0] * n
        #: Shards that hit the crash-loop cap (or an unrecoverable error).
        self.permanent = [False] * n
        #: Engine hooks: ``on_down(shard)`` at death detection,
        #: ``on_restart(shard, restore)`` after a successful respawn
        #: (``restore`` is the worker's hello restore report or None).
        self.on_down = None
        self.on_restart = None
        #: Zero-arg callable returning the engine's tracer (or None); a
        #: callable because the tracer is attached after construction.
        self.tracer_fn = None
        self._last_recover = [0.0] * n
        self._respawn_tasks: dict[int, asyncio.Task] = {}
        self._ping_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating on the running loop (idempotent per loop)."""
        if self._stopping:
            return
        loop = asyncio.get_running_loop()
        if (
            self._ping_task is not None
            and not self._ping_task.done()
            and self._loop is loop
        ):
            return
        self._loop = loop
        self._ping_task = loop.create_task(self._heartbeat())

    def request_stop(self) -> None:
        """Synchronous stop for teardown paths without a loop: no further
        deaths are acted on; in-flight respawn tasks are cancelled."""
        self._stopping = True
        if self._ping_task is not None:
            self._ping_task.cancel()
            self._ping_task = None
        for task in self._respawn_tasks.values():
            task.cancel()
        self._respawn_tasks = {}

    async def stop(self) -> None:
        """Stop and await the heartbeat and any in-flight respawns.

        Must run before the pool tears its clients down — otherwise the
        deliberate connection closes would read as a mass worker death."""
        self._stopping = True
        tasks = []
        if self._ping_task is not None:
            self._ping_task.cancel()
            tasks.append(self._ping_task)
            self._ping_task = None
        tasks.extend(self._respawn_tasks.values())
        self._respawn_tasks = {}
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def settle(self, timeout: float = 15.0) -> bool:
        """Wait (bounded) until no shard is mid-respawn; True when quiet.

        Teardown cancels in-flight respawns, so a short chaos run that
        closes its engine right after the load loop would report
        ``worker_restarts=0`` even though recovery was underway. Callers
        whose summary should reflect the recovery (the ``--chaos-workers``
        CLI) settle here first.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while any(state == "respawning" for state in self.state):
            if self._stopping or loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    # -- detection ------------------------------------------------------------
    def notify_death(self, shard: int) -> None:
        """Report shard ``shard`` dead (idempotent while it recovers).

        Called from the ShardClient connection-loss callback, the heartbeat,
        and the engine's request-path failure accounting — whichever notices
        first starts the respawn; the rest are no-ops.
        """
        if self._stopping or self.state[shard] != "up":
            return
        if (
            self._last_recover[shard]
            and time.monotonic() - self._last_recover[shard] > STABLE_SECONDS
        ):
            self.consecutive[shard] = 0
        self.state[shard] = "respawning"
        if self.on_down is not None:
            self.on_down(shard)
        task = asyncio.ensure_future(self._respawn(shard))
        self._respawn_tasks[shard] = task
        task.add_done_callback(
            lambda _t, shard=shard: self._respawn_tasks.pop(shard, None)
        )

    async def _heartbeat(self) -> None:
        while not self._stopping:
            await asyncio.sleep(PING_INTERVAL)
            for client in list(self.pool.clients):
                shard = client.shard_id
                if self.state[shard] != "up" or not client.attached:
                    continue
                try:
                    await asyncio.wait_for(client.call("ping"), PING_TIMEOUT)
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - any failure means dead/hung
                    self.notify_death(shard)

    # -- recovery -------------------------------------------------------------
    async def _respawn(self, shard: int) -> None:
        pool = self.pool
        loop = asyncio.get_running_loop()
        try:
            # Fail every waiter still pending on the dead client now, rather
            # than letting them dangle until the new connection exists.
            await pool.clients[shard].aclose()
            while not self._stopping:
                if self.consecutive[shard] >= MAX_RESTARTS:
                    self._go_permanent(shard)
                    return
                attempt = self.consecutive[shard]
                self.consecutive[shard] += 1
                await loop.run_in_executor(None, _reap, pool.processes[shard])
                delay = min(BACKOFF_BASE * (2.0**attempt), BACKOFF_MAX)
                if delay > 0:
                    await asyncio.sleep(delay)
                t0 = time.monotonic()
                try:
                    process, conn, restore, clock = await loop.run_in_executor(
                        None, pool.spawn_worker, pool.specs[shard]
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - retry with more backoff
                    continue
                client = pool.replace_client(shard, conn, process, clock)
                await client.attach()
                self.restarts[shard] += 1
                self.total_restarts += 1
                self._last_recover[shard] = time.monotonic()
                self.state[shard] = "up"
                self._trace_recover(shard, attempt, t0, restore)
                if self.on_restart is not None:
                    self.on_restart(shard, restore)
                return
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - a broken respawn path must not loop
            self._go_permanent(shard)

    def _go_permanent(self, shard: int) -> None:
        self.permanent[shard] = True
        self.state[shard] = "dead"

    def _trace_recover(self, shard: int, attempt: int, t0: float, restore) -> None:
        tracer = self.tracer_fn() if self.tracer_fn is not None else None
        if tracer is None or not getattr(tracer, "live", False):
            return
        span_t0 = tracer.clock() - (time.monotonic() - t0)
        tracer.record_leaf(
            "worker_respawn", span_t0, {"shard": shard, "attempt": attempt}
        )
        attrs = {"shard": shard, "restarts": self.restarts[shard]}
        if isinstance(restore, dict):
            attrs.update(restore)
        tracer.record_leaf("shard_recover", tracer.clock(), attrs)

    def __repr__(self) -> str:
        return (
            f"WorkerSupervisor(state={self.state}, restarts={self.restarts}, "
            f"permanent={self.permanent})"
        )


class ProcFaultInjector:
    """Seeded chaos for the proc tier: ``kill_at`` SIGKILLs shard 0's
    worker when the engine has seen that many serve calls
    (``on_serve`` is called once per request entering the proc engine's
    serve path, so the kill lands at a deterministic request index)."""

    def __init__(self, kill_at: int | None = None) -> None:
        self.kill_at = kill_at
        self.requests_seen = 0
        self.kills = 0

    def on_serve(self, pool) -> None:
        """Count one serve call; fire the seeded kill when its index comes."""
        index = self.requests_seen
        self.requests_seen += 1
        if self.kill_at is not None and index == self.kill_at:
            self.kill_worker(pool)

    def kill_worker(self, pool) -> bool:
        """SIGKILL shard 0's worker (no cleanup, no flush — the worker gets
        exactly the death an OOM kill would deliver)."""
        if not pool.processes:
            return False
        process = pool.processes[0]
        if process.pid is None or not process.is_alive():
            return False
        os.kill(process.pid, signal.SIGKILL)
        self.kills += 1
        return True

    def __repr__(self) -> str:
        return (
            f"ProcFaultInjector(kill_at={self.kill_at}, kills={self.kills})"
        )
