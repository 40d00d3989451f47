"""One-call construction of engines and their substrates.

Experiments need the same stack assembled over and over: embedder → ANN
index → judger → Sine → cache → engine, plus a remote service resolving
against a fact universe. These helpers build it with sensible defaults and a
single seed, so every benchmark and example reads as configuration rather
than plumbing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.ann import FlatIndex, HNSWIndex, IVFIndex, PQIndex
from repro.ann.base import VectorIndex
from repro.core import (
    AsteriaCache,
    AsteriaConfig,
    AsteriaEngine,
    ExactCache,
    ExactEngine,
    ShardedAsteriaCache,
    Sine,
    VanillaEngine,
)
from repro.core.arena import build_arena
from repro.core.eviction import EvictionPolicy, policy_by_name
from repro.core.tiered import TieredEngine
from repro.serving.aio import (
    AsyncAsteriaEngine,
    AsyncRemoteService,
)
from repro.serving.concurrent import ConcurrentEngine
from repro.serving.proc.engine import ProcAsteriaEngine
from repro.serving.proc.pool import WorkerPool
from repro.serving.proc.worker import WorkerSpec
from repro.embedding import CachedEmbedder, HashingEmbedder
from repro.judger import SimulatedJudger, SpinningJudger, spin_iterations
from repro.judger.staticity import StaticityScorer
from repro.core.resilience import ResilienceManager
from repro.network import FaultInjector, RemoteDataService, TokenBucket
from repro.network.ratelimit import RateLimiter
from repro.sim.distributions import Distribution, Uniform
from repro.sim.random import derive_seed
from repro.store.backend import CacheBackend
from repro.workloads.facts import FactUniverse


def build_backend(
    backend: "str | None", arena=None, backend_dir=None
) -> CacheBackend | None:
    """Resolve a backend selector for cache construction.

    ``None``/``"inprocess"`` returns None (the cache builds its default
    :class:`~repro.store.backend.InProcessBackend` over ``arena``);
    ``"filestore"`` builds a durable
    :class:`~repro.store.filestore.FileStoreBackend` rooted at
    ``backend_dir``; a callable is invoked with the arena and must return a
    backend (escape hatch for custom stores).
    """
    if backend is None or backend == "inprocess":
        return None
    if backend == "filestore":
        if backend_dir is None:
            raise ValueError("backend='filestore' requires backend_dir")
        from repro.store.filestore import FileStoreBackend

        return FileStoreBackend(backend_dir, arena=arena)
    if callable(backend):
        return backend(arena)
    raise ValueError(
        f"unknown backend {backend!r}; expected inprocess/filestore or a callable"
    )


def _attach_persistence(cache, persist_dir, fsync_every: int = 8):
    """Attach a :class:`~repro.store.persist.PersistentStore` (restores any
    prior state, then journals). The store lands on ``cache.persistent_store``
    and the restore report on ``cache.restore_report``."""
    if persist_dir is None:
        return cache
    from repro.store.persist import PersistentStore

    store = PersistentStore(persist_dir, fsync_every=fsync_every)
    report = store.attach(cache)
    cache.persistent_store = store
    cache.restore_report = report
    return cache


def build_index(kind: str, dim: int, seed: int = 0, arena=None) -> VectorIndex:
    """An ANN index by name: ``flat`` (default), ``hnsw``, ``ivf``, or ``pq``.

    ``arena`` (an :class:`~repro.core.arena.EmbeddingArena`) makes the index
    score shared contiguous rows instead of per-key arrays; share one
    instance with the cache that feeds the index.
    """
    if kind == "flat":
        if arena is not None:
            return FlatIndex(dim, arena=arena)
        return FlatIndex(dim)
    if kind == "hnsw":
        return HNSWIndex(dim, seed=seed, arena=arena)
    if kind == "ivf":
        return IVFIndex(dim, seed=seed, arena=arena)
    if kind == "pq":
        return PQIndex(dim, seed=seed, arena=arena)
    raise ValueError(f"unknown index kind {kind!r}; expected flat/hnsw/ivf/pq")


def build_remote(
    universe: FactUniverse | None = None,
    latency: "Distribution | float | dict | None" = None,
    rate_limit_per_minute: int | None = None,
    cost_per_call: float = 0.005,
    seed: int = 0,
    name: str = "search-api",
    fault_injector: FaultInjector | None = None,
) -> RemoteDataService:
    """A remote data service, optionally resolving against ``universe``.

    ``latency`` defaults to the paper's U(0.3 s, 0.5 s) search-API range;
    pass 0.3 for the self-hosted RAG service. ``rate_limit_per_minute``
    installs a token bucket (Google's limit is 100 QPM). ``fault_injector``
    attaches a seeded chaos source (see
    :class:`~repro.network.faults.FaultInjector`).
    """
    limiter: RateLimiter | None = None
    if rate_limit_per_minute is not None:
        limiter = TokenBucket.per_minute(rate_limit_per_minute)
    return RemoteDataService(
        name=name,
        latency=latency if latency is not None else Uniform(0.3, 0.5),
        resolver=universe.resolve if universe is not None else None,
        rate_limiter=limiter,
        cost_per_call=cost_per_call,
        rng=np.random.default_rng(derive_seed(seed, f"remote:{name}")),
        fault_injector=fault_injector,
    )


def build_asteria_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    seed: int = 0,
    index_kind: str = "flat",
    index: VectorIndex | None = None,
    policy: "EvictionPolicy | str" = "lcfu",
    judger: SimulatedJudger | None = None,
    judge_executor=None,
    resilience: ResilienceManager | None = None,
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    backend: "str | None" = None,
    backend_dir=None,
    persist_dir=None,
    fsync_every: int = 8,
    name: str = "asteria",
) -> AsteriaEngine:
    """The full Asteria stack with simulated substrates.

    One ``seed`` derives independent streams for the embedder, judger, and
    staticity scorer, so two engines with the same seed behave identically.
    A pre-built ``index`` (matching the embedder's 256 dims) overrides
    ``index_kind`` when custom ANN parameters are needed — it then keeps its
    own storage (no shared arena). ``resilience`` overrides the engine's
    default fault-tolerance policy (circuit breaker, negative cache, stale
    serving). ``arena`` selects the embedding storage tier: ``"float32"``
    (default — contiguous rows, decision-identical to per-element arrays),
    ``"int8"`` (quantized, ~4x smaller, approximate scores), or ``None``
    for standalone per-element arrays. ``backend`` selects the element
    store (see :func:`build_backend`); ``persist_dir`` attaches
    snapshot+journal durability (restoring any prior state first — see
    :class:`~repro.store.persist.PersistentStore`).
    """
    config = config if config is not None else AsteriaConfig()
    cache = build_semantic_cache(
        config,
        seed=seed,
        index_kind=index_kind,
        policy=policy,
        arena=arena,
        judge_spin=judge_spin,
        backend=backend,
        backend_dir=backend_dir,
        persist_dir=persist_dir,
        fsync_every=fsync_every,
        index=index,
        judger=judger,
    )
    return AsteriaEngine(
        cache,
        remote,
        config,
        judge_executor=judge_executor,
        resilience=resilience,
        name=name,
    )


def build_exact_engine(
    remote: RemoteDataService,
    capacity_items: int | None = None,
    default_ttl: float | None = 3600.0,
    name: str = "exact",
) -> ExactEngine:
    """The Agent_exact baseline."""
    cache = ExactCache(capacity_items=capacity_items, default_ttl=default_ttl)
    return ExactEngine(cache, remote, name=name)


def build_vanilla_engine(
    remote: RemoteDataService, name: str = "vanilla"
) -> VanillaEngine:
    """The Agent_vanilla baseline."""
    return VanillaEngine(remote, name=name)


def build_semantic_cache(
    config: AsteriaConfig | None = None,
    seed: int = 0,
    index_kind: str = "flat",
    policy: "EvictionPolicy | str" = "lcfu",
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    judge_spin_iterations: int | None = None,
    backend: "str | None" = None,
    backend_dir=None,
    persist_dir=None,
    fsync_every: int = 8,
    index: VectorIndex | None = None,
    judger: SimulatedJudger | None = None,
) -> AsteriaCache:
    """A standalone semantic cache (used for shared tiers and direct use).

    The one place the stack is assembled — :func:`build_asteria_engine` and
    every sharded/worker builder come through here. ``arena`` selects the
    embedding storage tier (``"float32"`` default / ``"int8"`` / ``None``)
    — see :func:`build_asteria_engine`. ``judge_spin`` > 0 wraps the judger
    in a :class:`~repro.judger.SpinningJudger` that burns that many seconds
    of GIL-holding CPU per judged candidate (identical decisions, real CPU
    cost — for parallelism benchmarks). A pre-built ``index`` keeps its own
    storage (no shared arena) and must match the embedder's dims; ``judger``
    replaces the seeded :class:`~repro.judger.SimulatedJudger`.
    """
    config = config if config is not None else AsteriaConfig()
    embedder = CachedEmbedder(HashingEmbedder(seed=derive_seed(seed, "embedder")))
    shared_arena = None
    if index is None:
        shared_arena = build_arena(arena, embedder.dim)
        index = build_index(
            index_kind,
            embedder.dim,
            seed=derive_seed(seed, "index"),
            arena=shared_arena,
        )
    elif index.dim != embedder.dim:
        raise ValueError(
            f"custom index dim {index.dim} != embedder dim {embedder.dim}"
        )
    if judger is None:
        judger = SimulatedJudger(seed=derive_seed(seed, "judger"))
    if judge_spin > 0:
        judger = SpinningJudger(
            judger, spin=judge_spin, iterations=judge_spin_iterations
        )
    sine = Sine(
        embedder,
        index,
        judger,
        tau_sim=config.tau_sim,
        tau_lsm=config.tau_lsm,
        max_candidates=config.max_candidates,
    )
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    resolved_backend = build_backend(backend, arena=shared_arena, backend_dir=backend_dir)
    cache = AsteriaCache(
        sine,
        capacity_items=config.capacity_items,
        default_ttl=config.default_ttl,
        policy=policy,
        staticity_scorer=StaticityScorer(seed=derive_seed(seed, "staticity")),
        staticity_ttl_scaling=config.staticity_ttl_scaling,
        arena=shared_arena if resolved_backend is None else None,
        backend=resolved_backend,
    )
    return _attach_persistence(cache, persist_dir, fsync_every=fsync_every)


def _shard_config(config: AsteriaConfig, shards: int) -> AsteriaConfig:
    """``config`` with a bounded ``capacity_items`` ceil-split over ``shards``
    (so the total may exceed the request by up to ``shards - 1``)."""
    if config.capacity_items is None or shards <= 1:
        return config
    return replace(config, capacity_items=-(-config.capacity_items // shards))


def _serving_config(config: AsteriaConfig | None, tier: str) -> AsteriaConfig:
    """The config a concurrent tier serves under: prefetch and recalibration
    mutate engine-global state on the request path, so they must be off."""
    config = config if config is not None else AsteriaConfig()
    if config.prefetch_enabled or config.recalibration_enabled:
        raise ValueError(
            f"{tier} serving requires prefetch_enabled and "
            "recalibration_enabled off; run those studies sequentially"
        )
    return config


def build_sharded_cache(
    config: AsteriaConfig | None = None,
    seed: int = 0,
    shards: int = 4,
    index_kind: str = "flat",
    policy: "EvictionPolicy | str" = "lcfu",
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    backend: "str | None" = None,
    backend_dir=None,
    persist_dir=None,
    fsync_every: int = 8,
) -> ShardedAsteriaCache:
    """A thread-safe sharded semantic cache for concurrent serving.

    Every shard is built with the *same* ``seed`` so all shards share
    embedding/judging behaviour (those substrates are deterministic
    per-text); with ``shards=1`` the result replays an unsharded
    :func:`build_semantic_cache` decision for decision. A bounded
    ``config.capacity_items`` is split evenly across shards (rounded up, so
    the total may exceed the request by up to ``shards - 1``). Each shard
    gets its own private embedding arena (tier selected by ``arena``), so
    shard locks also cover arena mutation.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    config = config if config is not None else AsteriaConfig()
    shard_config = _shard_config(config, shards)
    shard_backend_dirs: list = [None] * shards
    if backend_dir is not None:
        from repro.store.persist import shard_directory

        shard_backend_dirs = [
            shard_directory(backend_dir, shard) for shard in range(shards)
        ]
    sharded = ShardedAsteriaCache(
        [
            build_semantic_cache(
                shard_config,
                seed=seed,
                index_kind=index_kind,
                policy=policy,
                arena=arena,
                judge_spin=judge_spin,
                backend=backend,
                backend_dir=shard_backend_dirs[shard],
            )
            for shard in range(shards)
        ]
    )
    if persist_dir is not None:
        from repro.store.persist import ShardedPersistentStore

        store = ShardedPersistentStore(persist_dir, shards, fsync_every=fsync_every)
        reports = store.attach(sharded)
        sharded.persistent_store = store
        sharded.restore_reports = reports
    return sharded


def build_concurrent_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    seed: int = 0,
    shards: int = 4,
    workers: int = 4,
    index_kind: str = "flat",
    policy: "EvictionPolicy | str" = "lcfu",
    io_pause_scale: float = 0.0,
    follower_timeout: float | None = None,
    resilience: ResilienceManager | None = None,
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    backend: "str | None" = None,
    backend_dir=None,
    persist_dir=None,
    fsync_every: int = 8,
    name: str = "asteria-concurrent",
) -> ConcurrentEngine:
    """The full concurrent serving stack: sharded cache + worker-pool engine.

    ``shards`` partitions the cache (stable-hash routing on canonical query
    text, one lock per shard); ``workers`` sizes the serving thread pool and
    closed-loop load generator. ``io_pause_scale`` > 0 turns each simulated
    remote fetch latency into a real wall-clock pause so worker pools
    overlap remote I/O the way a deployed system would — see
    :class:`~repro.serving.concurrent.ConcurrentEngine`.
    """
    config = _serving_config(config, "concurrent")
    cache = build_sharded_cache(
        config,
        seed=seed,
        shards=shards,
        index_kind=index_kind,
        policy=policy,
        arena=arena,
        judge_spin=judge_spin,
        backend=backend,
        backend_dir=backend_dir,
        persist_dir=persist_dir,
        fsync_every=fsync_every,
    )
    engine = AsteriaEngine(cache, remote, config, resilience=resilience, name=name)
    return ConcurrentEngine(
        engine,
        workers=workers,
        io_pause_scale=io_pause_scale,
        follower_timeout=follower_timeout,
    )


def build_async_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    seed: int = 0,
    shards: int = 4,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    follower_timeout: float | None = None,
    hedge_percentile: float | None = None,
    hedge_min_samples: int = 20,
    batch_window: float = 0.0,
    batch_max: int = 16,
    index_kind: str = "flat",
    policy: "EvictionPolicy | str" = "lcfu",
    resilience: ResilienceManager | None = None,
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    backend: "str | None" = None,
    backend_dir=None,
    persist_dir=None,
    fsync_every: int = 8,
    name: str = "asteria-async",
) -> AsyncAsteriaEngine:
    """The full asyncio serving stack: sharded cache + event-loop engine.

    Single-threaded, so the cache needs no locks — the sharded shape is
    kept anyway so async and thread-pool runs share one stack (and one
    paraphrase-routing behaviour) and differ only in how they overlap
    remote waits. ``io_pause_scale`` is the same knob as the thread pool's;
    ``max_inflight`` / ``default_deadline`` / ``hedge_percentile`` configure
    backpressure, deadlines, and hedging — see
    :class:`~repro.serving.aio.AsyncAsteriaEngine`.
    """
    config = _serving_config(config, "async")
    cache = build_sharded_cache(
        config,
        seed=seed,
        shards=shards,
        index_kind=index_kind,
        policy=policy,
        arena=arena,
        judge_spin=judge_spin,
        backend=backend,
        backend_dir=backend_dir,
        persist_dir=persist_dir,
        fsync_every=fsync_every,
    )
    engine = AsteriaEngine(cache, remote, config, resilience=resilience, name=name)
    return AsyncAsteriaEngine(
        engine,
        remote=AsyncRemoteService(remote, io_pause_scale=io_pause_scale),
        max_inflight=max_inflight,
        default_deadline=default_deadline,
        follower_timeout=follower_timeout,
        hedge_percentile=hedge_percentile,
        hedge_min_samples=hedge_min_samples,
        batch_window=batch_window,
        batch_max=batch_max,
    )


def build_proc_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    seed: int = 0,
    workers: int = 4,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    follower_timeout: float | None = None,
    batch_window: float = 0.0,
    batch_max: int = 16,
    index_kind: str = "flat",
    policy: str = "lcfu",
    resilience: ResilienceManager | None = None,
    arena: str | None = "float32",
    judge_spin: float = 0.0,
    codec: str = "pickle",
    persist_dir=None,
    fsync_every: int = 8,
    name: str = "asteria-proc",
    launch: bool = True,
    supervise: bool = True,
    fault_domains: bool = True,
    supervisor_ping_interval: float = 0.25,
    supervisor_ping_timeout: float = 2.0,
    supervisor_backoff_base: float = 0.05,
    supervisor_backoff_max: float = 2.0,
    supervisor_max_restarts: int = 5,
    shard_open_seconds: float = 0.5,
    proc_faults=None,
) -> ProcAsteriaEngine:
    """The multi-process serving stack: shard worker processes + async router.

    ``workers`` is both the process count and the shard count (one shard per
    process, routed by the same stable crc32 hash as the sharded cache, so
    ``workers=1`` replays the single-process engine's decisions exactly). A
    bounded ``config.capacity_items`` is ceil-split across workers exactly
    like :func:`build_sharded_cache`. ``policy`` must be a *name* — it
    crosses the spawn boundary inside a :class:`WorkerSpec`. ``codec``
    selects the wire serializer (``pickle`` default, ``msgpack`` when
    installed). With ``launch=False`` the pool is constructed but no process
    is spawned (call ``engine.pool.launch()`` later).

    ``supervise`` arms the :class:`WorkerSupervisor` (heartbeat + respawn
    with backoff; warm restore when ``persist_dir`` is set);
    ``fault_domains`` arms the per-shard breakers that keep a dead shard's
    requests degrading locally (stale hit, else direct remote fetch)
    instead of failing the engine. ``proc_faults`` accepts a
    :class:`ProcFaultInjector` for chaos runs.
    """
    config = _serving_config(config, "proc")
    if not isinstance(policy, str):
        raise TypeError(
            "build_proc_engine needs a policy *name* (the spec crosses the "
            f"process boundary), got {type(policy).__name__}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shard_config = _shard_config(config, workers)
    # Calibrate the spin once here, in the quiet parent, and ship the
    # iteration count to every worker: a worker calibrating while its
    # siblings burn CPU on the same cores would measure a contended loop
    # rate, give itself less work per judge, and fake parallel speedup.
    iterations = spin_iterations(judge_spin) if judge_spin > 0 else None
    shard_dirs: list[str | None] = [None] * workers
    if persist_dir is not None:
        from repro.store.persist import shard_directory

        shard_dirs = [
            str(shard_directory(persist_dir, shard)) for shard in range(workers)
        ]
    specs = [
        WorkerSpec(
            shard_id=shard,
            n_shards=workers,
            config=shard_config,
            seed=seed,
            index_kind=index_kind,
            policy=policy,
            arena=arena,
            judge_spin=judge_spin,
            judge_spin_iterations=iterations,
            codec=codec,
            persist_dir=shard_dirs[shard],
            fsync_every=fsync_every,
        )
        for shard in range(workers)
    ]
    pool = WorkerPool(
        specs,
        batch_window=batch_window,
        batch_max=batch_max,
        ann_only=config.ann_only,
        frame_faults=proc_faults,
    )
    if supervise:
        # Before the engine: ProcAsteriaEngine wires its restart/breaker
        # callbacks onto pool.supervisor in its constructor.
        pool.enable_supervision(
            ping_interval=supervisor_ping_interval,
            ping_timeout=supervisor_ping_timeout,
            backoff_base=supervisor_backoff_base,
            backoff_max=supervisor_backoff_max,
            max_restarts=supervisor_max_restarts,
        )
    if launch:
        pool.launch()
    return ProcAsteriaEngine(
        pool,
        remote,
        config,
        resilience=resilience,
        io_pause_scale=io_pause_scale,
        max_inflight=max_inflight,
        default_deadline=default_deadline,
        follower_timeout=follower_timeout,
        name=name,
        fault_domains=fault_domains,
        shard_open_seconds=shard_open_seconds,
        proc_faults=proc_faults,
    )


def build_tiered_engine(
    remote: RemoteDataService,
    l2: AsteriaCache,
    l1_capacity: int | None = 16,
    config: AsteriaConfig | None = None,
    seed: int = 0,
    l2_latency: float = 0.005,
    name: str = "tiered",
) -> TieredEngine:
    """One fleet node: a private L1 over the shared ``l2`` cache.

    Build the shared tier once with :func:`build_semantic_cache` (use the
    same ``seed`` so both tiers share embedder/judger behaviour), then one
    TieredEngine per node.
    """
    config = config if config is not None else AsteriaConfig()
    l1_config = AsteriaConfig(
        tau_sim=config.tau_sim,
        tau_lsm=config.tau_lsm,
        max_candidates=config.max_candidates,
        capacity_items=l1_capacity,
        default_ttl=config.default_ttl,
        staticity_ttl_scaling=config.staticity_ttl_scaling,
    )
    l1 = build_semantic_cache(l1_config, seed=seed)
    return TieredEngine(
        l1, l2, remote, config, l2_latency=l2_latency, name=name
    )
