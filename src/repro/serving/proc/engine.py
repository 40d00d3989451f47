"""The multi-process front door: ``AsyncAsteriaEngine`` over a worker pool.

:class:`ProcAsteriaEngine` subclasses the asyncio engine and overrides
exactly its two cache access points (``_sine_lookup`` and ``_admit``) to go
through the :class:`~repro.serving.proc.pool.WorkerPool` instead of an
in-process cache. Everything else — backpressure, deadlines, the
single-flight layer, resilience (breaker / negative cache / stale serving),
retry accounting, and every ``EngineMetrics`` counter — is the inherited
code running unmodified at the router, which is what makes the proc
engine's metrics *exactly* aggregate: there is only one accountant.

Division of labour per request:

* **worker** — expiry purge, embed, ANN search, judging, and (on admitted
  misses) the insert with its evictions: all the GIL-heavy CPU work.
* **router** — shard routing (the sharded cache's content-key crc32,
  computed once per lookup or admit),
  remote fetches (keeping the seeded remote RNG a single ordered stream),
  cross-process single-flight (two concurrent misses for one canonical key
  share one fetch *and* one insert even when served to different callers),
  degradation, and metric recording against the piggybacked shard stats.

The router never sees an embedding: lookup replies carry ``SineResult``
records (:mod:`repro.core.records`) whose elements are embedding-less, and the
accounting path doesn't read vectors. Worker-side stage spans (embed /
ann_search / judge / evict) *are* traced when a tracer is attached: the
router stamps each lookup/insert with its request's ``[trace_id,
parent_span_id]`` context, workers record the stages under that remote
parent, and the completed records ride back on reply frames where
:func:`~repro.obs.distributed.graft_spans` re-bases them onto the router's
clock using the per-worker offset estimated at the hello handshake
(DESIGN §16).
"""

from __future__ import annotations

import time

from repro.core.config import AsteriaConfig
from repro.core.engine import AsteriaEngine
from repro.core.flow import CacheUnavailable, EngineResponse
from repro.core.resilience import CircuitBreaker, ResilienceManager
from repro.network.remote import RemoteDataService
from repro.obs.distributed import make_span_sink, trace_context
from repro.serving.aio.engine import AsyncAsteriaEngine, AsyncOutcome
from repro.serving.aio.remote import AsyncRemoteService
from repro.serving.proc.pool import WorkerError, WorkerPool


class _TauHolder:
    """Stands in for ``cache.sine``: the engine writes its thresholds here at
    construction; workers got the same values via their spec's config."""

    def __init__(self) -> None:
        self.tau_sim = 0.0
        self.tau_lsm = 0.0
        self.max_candidates = 1


class _RouterCacheView:
    """The router-side stand-in for the sharded cache.

    Reads resolve against the piggybacked per-shard stats tuples
    (:meth:`WorkerPool.stats_snapshot`), which every worker reply refreshes
    *before* its waiter resumes — so ``stats``/``usage()`` observed after an
    awaited lookup or insert are at least as fresh as that operation, and
    ``AsteriaEngine._record_response``'s eviction/expiration sync is exact.
    """

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool
        self.sine = _TauHolder()
        self.tracer = None

    @property
    def stats(self):
        return self.pool.stats_snapshot()

    def usage(self) -> int:
        return self.pool.usage_snapshot()

    @property
    def capacity_items(self) -> int | None:
        return self.pool.capacity_items

    def set_tracer(self, tracer) -> None:
        # The pool grafts worker-side span records (piggybacked on reply
        # frames) straight into this tracer; detaching (tracer=None)
        # removes the sink so replies drop any stray records on the floor.
        self.tracer = tracer
        self.pool.span_sink = make_span_sink(tracer)

    def __len__(self) -> int:
        return self.usage()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"_RouterCacheView(shards={self.pool.n_shards})"


class ProcAsteriaEngine(AsyncAsteriaEngine):
    """Asyncio front door routing to per-shard worker processes.

    Parameters mirror :class:`AsyncAsteriaEngine` where they apply; the
    cache-side knobs live in the pool's :class:`WorkerSpec`. The pool must
    already be launched (or launchable) — attachment to the running event
    loop happens lazily on the first served request.
    """

    def __init__(
        self,
        pool: WorkerPool,
        remote: RemoteDataService,
        config: AsteriaConfig | None = None,
        resilience: ResilienceManager | None = None,
        io_pause_scale: float = 0.0,
        max_inflight: int = 256,
        default_deadline: float | None = None,
        follower_timeout: float | None = None,
        fault_domains: bool = True,
        shard_open_seconds: float = 0.5,
        proc_faults=None,
        name: str = "asteria-proc",
    ) -> None:
        config = config if config is not None else AsteriaConfig()
        view = _RouterCacheView(pool)
        inner = AsteriaEngine(
            view, remote, config, resilience=resilience, name=name
        )
        super().__init__(
            inner,
            remote=AsyncRemoteService(remote, io_pause_scale=io_pause_scale),
            max_inflight=max_inflight,
            default_deadline=default_deadline,
            follower_timeout=follower_timeout,
        )
        self.pool = pool
        #: With ``fault_domains`` on, a request routed to a dead/recovering
        #: shard degrades *per domain* (stale hit, direct remote fetch, or
        #: explicit failure) instead of surfacing a WorkerError; off, shard
        #: death propagates like any other exception (the benchmark's
        #: contrast arm and the pre-supervision behavior).
        self.fault_domains = fault_domains
        #: One wall-clock breaker per shard: connection loss trips it open
        #: immediately (threshold 1.0 over a 1-outcome window), and half-open
        #: probes rediscover an unsupervised recovery; the supervisor
        #: force-resets it on a confirmed respawn. The *global* breaker in
        #: ``engine.resilience`` stays reserved for backend faults.
        self.shard_breakers = [
            CircuitBreaker(
                failure_threshold=1.0,
                window=1,
                min_samples=1,
                open_seconds=shard_open_seconds,
                half_open_probes=1,
            )
            for _ in range(pool.n_shards)
        ]
        #: Per-shard count of *flights* charged as shard failures (coalesced
        #: waiters sharing one teardown exception count once).
        self.shard_failures = [0] * pool.n_shards
        #: Optional chaos hook (see ProcFaultInjector.on_serve).
        self.proc_faults = proc_faults
        if pool.supervisor is not None:
            pool.supervisor.on_down = self._on_shard_down
            pool.supervisor.on_restart = self._on_shard_restart
            pool.supervisor.tracer_fn = lambda: self.engine.tracer

    # -- supervisor hooks -------------------------------------------------------
    def _on_shard_down(self, shard: int) -> None:
        if self.fault_domains:
            breaker = self.shard_breakers[shard]
            if breaker.state == "closed":
                breaker.record_failure(time.monotonic())

    def _on_shard_restart(self, shard: int, restore) -> None:
        self.metrics.worker_restarts += 1
        if self.fault_domains:
            self.shard_breakers[shard].reset(time.monotonic())

    def _shard_failure(self, shard: int, exc: WorkerError) -> None:
        """Charge one failed flight to a shard's fault domain.

        Dedups on the exception object (the ShardClient teardown shares one
        instance across every pending waiter; batched lookups already share
        their frame's), mirroring ``_account_failure``'s marker scheme —
        breaker windows count flights, not disappointed callers.
        """
        if getattr(exc, "_shard_accounted", False):
            return
        exc._shard_accounted = True
        self.shard_failures[shard] += 1
        self.shard_breakers[shard].record_failure(time.monotonic())
        if self.pool.supervisor is not None:
            self.pool.supervisor.notify_death(shard)

    def _shard_allow(self, shard: int, now: float) -> bool:
        supervisor = self.pool.supervisor
        if supervisor is not None and supervisor.permanent[shard]:
            return False
        return self.shard_breakers[shard].allow(now)

    # -- the two cache access points ------------------------------------------
    async def _sine_lookup(self, query, now, prepared=None):
        """The lookup, wrapped in its shard's fault domain.

        `prepared` (the in-process stage-1 snapshot) never applies here:
        frame-level accumulation in the ShardClient is the batching tier.
        `ctx` carries the current request span's identity across the
        process boundary (None on untraced/unsampled traffic — the frame
        stays byte-identical to the pre-tracing wire).

        With fault domains on, a known-dead shard (its breaker refuses)
        throws :class:`CacheUnavailable` without touching the wire, and a
        WorkerError — the shard died under this request — is charged to the
        shard's domain and becomes one too: the flow degrades per domain and
        a raw WorkerError never reaches ``serve()``'s caller.
        """
        ctx = trace_context(self.engine.tracer)
        shard = self.pool.shard_for(query.text)
        if not self.fault_domains:
            return await self.pool.lookup(query, now, shard, ctx=ctx)
        if not self._shard_allow(shard, time.monotonic()):
            raise CacheUnavailable(shard)
        try:
            result = await self.pool.lookup(query, now, shard, ctx=ctx)
        except WorkerError as exc:
            self._shard_failure(shard, exc)
            raise CacheUnavailable(shard) from exc
        # Closed-state successes aren't recorded (a 1-slot window needs no
        # success history); a granted half-open probe that came back is the
        # recovery signal that re-closes an unsupervised breaker.
        breaker = self.shard_breakers[shard]
        if breaker.state != "closed":
            breaker.record_success(time.monotonic())
        return result

    async def _admit(self, query, fetch, arrival) -> None:
        shard = self.pool.shard_for(query.text)
        ctx = trace_context(self.engine.tracer)
        try:
            await self.pool.insert(query, fetch, arrival, shard, ctx=ctx)
        except WorkerError as exc:
            if not self.fault_domains:
                raise
            # The fetch itself succeeded — the caller (and any coalesced
            # followers) still get a fresh payload; only the cache insert is
            # lost. Swallowing here keeps single-flight leader flights from
            # failing after the worker died mid-admission.
            self._shard_failure(shard, exc)

    # -- serving ----------------------------------------------------------------
    async def _serve_outer(self, query, now, deadline, serve=None) -> AsyncOutcome:
        if not self.pool.attached:
            await self.pool.attach()
        return await super()._serve_outer(query, now, deadline, serve=serve)

    async def _serve(self, query, now, prepared=None) -> EngineResponse:
        if self.proc_faults is not None:
            self.proc_faults.on_serve(self.pool)
        return await super()._serve(query, now, prepared=prepared)

    async def serve_batched(self, query, now: float = 0.0, deadline=None):
        """Batching happens per shard at the wire (the ShardClient's
        accumulation window), so the scalar path *is* the batched path."""
        return await self.serve(query, now, deadline)

    # -- lifecycle ----------------------------------------------------------------
    async def drain(self) -> None:
        self.pool.flush()
        await super().drain()

    async def aclose(self) -> None:
        """Drain in-flight work, then stop the worker processes."""
        await self.drain()
        await self.pool.shutdown()

    async def __aenter__(self) -> "ProcAsteriaEngine":
        if not self.pool.attached:
            await self.pool.attach()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return (
            f"ProcAsteriaEngine(name={self.name!r}, shards={self.pool.n_shards}, "
            f"max_inflight={self.max_inflight}, inflight={self.inflight})"
        )
