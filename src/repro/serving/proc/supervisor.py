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
                               │    after ``stable_seconds`` of uptime)
                               └──``max_restarts`` consecutive crashes──▶ dead
                                   (permanent: the engine routes the shard
                                    to its degraded path forever)

The supervisor never touches request routing itself — it exposes callbacks
(:attr:`on_down`, :attr:`on_restart`, :attr:`on_permanent`) that
:class:`~repro.serving.proc.engine.ProcAsteriaEngine` wires to its
per-shard circuit breakers, so detection, routing, and recovery stay in
their own layers.

:class:`ProcFaultInjector` is the chaos hook the benchmarks and the
``--chaos-workers`` stress mode drive: SIGKILL a chosen worker at a seeded
request index, and/or drop or delay that worker's reply frames with seeded
probabilities (a dropped frame leaves its waiter pending — exactly the hang
the heartbeat exists to catch).
"""

from __future__ import annotations

import asyncio
import time


def _reap(process, timeout: float = 5.0) -> None:
    """Make sure a dead-or-dying worker is gone before its successor spawns
    (two processes journaling one shard directory would interleave)."""
    if process.is_alive():
        process.kill()
    process.join(timeout)


class WorkerSupervisor:
    """Detect, reap, and respawn dead shard workers for one pool.

    Parameters
    ----------
    pool:
        The owning :class:`WorkerPool`; the supervisor spawns through its
        :meth:`~repro.serving.proc.pool.WorkerPool.spawn_worker` /
        :meth:`~repro.serving.proc.pool.WorkerPool.replace_client` seam.
    ping_interval:
        Wall seconds between heartbeat sweeps (0 disables the heartbeat;
        connection-loss detection still works). Each sweep pings every
        up-state shard; a ping that errors or exceeds ``ping_timeout``
        reports the shard dead.
    ping_timeout:
        Wall seconds a single heartbeat ping may take. This is what catches
        a *hung* worker (or one whose reply frames are being dropped by the
        fault injector): the connection is alive, but nothing answers.
    backoff_base / backoff_max:
        Respawn delay is ``min(backoff_base * 2**consecutive, backoff_max)``.
    max_restarts:
        Consecutive-crash cap: once a shard has crashed this many times
        without ``stable_seconds`` of healthy uptime in between, it goes
        permanently dead and is served degraded forever.
    stable_seconds:
        Uptime after which a shard's consecutive-crash counter resets — a
        worker that crashes once a day is not crash-looping.
    """

    def __init__(
        self,
        pool,
        ping_interval: float = 0.25,
        ping_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_restarts: int = 5,
        stable_seconds: float = 5.0,
    ) -> None:
        if ping_interval < 0 or ping_timeout <= 0:
            raise ValueError("ping_interval must be >= 0 and ping_timeout > 0")
        if backoff_base < 0 or backoff_max < backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_max")
        if max_restarts < 0 or stable_seconds < 0:
            raise ValueError("max_restarts and stable_seconds must be >= 0")
        self.pool = pool
        self.ping_interval = ping_interval
        self.ping_timeout = ping_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_restarts = max_restarts
        self.stable_seconds = stable_seconds
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
        #: (``restore`` is the worker's hello restore report or None),
        #: ``on_permanent(shard)`` when the crash-loop cap trips.
        self.on_down = None
        self.on_restart = None
        self.on_permanent = None
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
        if self._stopping or self.ping_interval <= 0:
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
        CLI, the chaos benchmark) settle here first.
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
            and time.monotonic() - self._last_recover[shard] > self.stable_seconds
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
            await asyncio.sleep(self.ping_interval)
            for client in list(self.pool.clients):
                shard = client.shard_id
                if self.state[shard] != "up" or not client.attached:
                    continue
                try:
                    await asyncio.wait_for(client.call("ping"), self.ping_timeout)
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
                if self.consecutive[shard] >= self.max_restarts:
                    self._go_permanent(shard)
                    return
                attempt = self.consecutive[shard]
                self.consecutive[shard] += 1
                await loop.run_in_executor(None, _reap, pool.processes[shard])
                delay = min(self.backoff_base * (2.0**attempt), self.backoff_max)
                if delay > 0:
                    await asyncio.sleep(delay)
                t0 = time.monotonic()
                try:
                    process, conn, restore, offset = await loop.run_in_executor(
                        None, pool.spawn_worker, pool.specs[shard]
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - retry with more backoff
                    continue
                client = pool.replace_client(shard, conn, process, clock_offset=offset)
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
        if self.on_permanent is not None:
            self.on_permanent(shard)

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
    """Seeded chaos for the proc tier.

    ``kill_at`` SIGKILLs shard ``kill_shard``'s worker when the engine has
    seen that many serve calls (``on_serve`` is called once per request
    entering the proc engine's serve path, so the kill lands at a
    deterministic request index). ``drop_rate`` / ``delay_rate`` act on the
    targeted shard's *reply frames* inside the ShardClient read loop: a
    dropped frame never resolves its waiter (the supervisor's ping timeout
    is what notices), a delayed frame resolves ``delay_seconds`` late.
    """

    def __init__(
        self,
        kill_shard: int = 0,
        kill_at: int | None = None,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.01,
        seed: int = 0,
    ) -> None:
        if kill_shard < 0:
            raise ValueError(f"kill_shard must be >= 0, got {kill_shard}")
        if not 0.0 <= drop_rate <= 1.0 or not 0.0 <= delay_rate <= 1.0:
            raise ValueError("drop_rate and delay_rate must be in [0, 1]")
        if drop_rate + delay_rate > 1.0:
            raise ValueError("drop_rate + delay_rate must be <= 1")
        self.kill_shard = kill_shard
        self.kill_at = kill_at
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.requests_seen = 0
        self.kills = 0
        self.dropped_frames = 0
        self.delayed_frames = 0

    def on_serve(self, pool) -> None:
        """Count one serve call; fire the seeded kill when its index comes."""
        index = self.requests_seen
        self.requests_seen += 1
        if self.kill_at is not None and index == self.kill_at:
            self.kill_worker(pool)

    def kill_worker(self, pool) -> bool:
        """SIGKILL the targeted shard's worker (no cleanup, no flush — the
        worker gets exactly the death an OOM kill would deliver)."""
        import os
        import signal

        if self.kill_shard >= len(pool.processes):
            return False
        process = pool.processes[self.kill_shard]
        if process.pid is None or not process.is_alive():
            return False
        os.kill(process.pid, signal.SIGKILL)
        self.kills += 1
        return True

    def frame_action(self, shard_id: int) -> tuple[str, float]:
        """Fate of one reply frame from ``shard_id``:
        ``("deliver"|"drop", delay_seconds)``."""
        if shard_id != self.kill_shard or (
            self.drop_rate <= 0.0 and self.delay_rate <= 0.0
        ):
            return ("deliver", 0.0)
        draw = float(self.rng.random())
        if draw < self.drop_rate:
            self.dropped_frames += 1
            return ("drop", 0.0)
        if draw < self.drop_rate + self.delay_rate:
            self.delayed_frames += 1
            return ("deliver", self.delay_seconds)
        return ("deliver", 0.0)

    def summary(self) -> dict:
        return {
            "kills": self.kills,
            "dropped_frames": self.dropped_frames,
            "delayed_frames": self.delayed_frames,
            "requests_seen": self.requests_seen,
        }

    def __repr__(self) -> str:
        return (
            f"ProcFaultInjector(kill_shard={self.kill_shard}, "
            f"kill_at={self.kill_at}, kills={self.kills})"
        )
