"""One-call construction of engines and their substrates.

Experiments need the same stack assembled over and over: embedder → ANN
index → judger → Sine → cache → engine, plus a remote service resolving
against a fact universe. These helpers build it with sensible defaults and a
single seed, so every benchmark and example reads as configuration rather
than plumbing.

The stack's knobs are declared once, on :class:`StackSpec`, and read once,
in :func:`build_semantic_cache`. Every ``build_*_engine`` takes them as
``**stack`` keywords it never looks at: it names only what its own tier
adds (workers, deadlines, supervision, ...), so a new stack knob is one
field here and reaches every tier, worker processes included.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.ann import FlatIndex
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
from repro.store.persist import PersistentStore, ShardedPersistentStore, shard_directory
from repro.workloads.facts import FactUniverse


@dataclass(frozen=True)
class StackSpec:
    """One semantic-cache stack, declared: embedder → ANN index → judger →
    Sine → cache (→ journal). Frozen and picklable, so the spec a proc
    worker rebuilds its shard from is the very object the parent validated.
    Two stacks built from equal specs behave identically.
    """

    #: Thresholds, capacity, TTL and latency constants (shared with the engine).
    config: AsteriaConfig = field(default_factory=AsteriaConfig)
    #: Derives independent streams for the embedder, judger and staticity
    #: scorer.
    seed: int = 0
    #: The vector index; ``"flat"`` is the only one (DESIGN §12). Still a
    #: field because the frozen benchmark passes it (ROADMAP item 7).
    index_kind: str = "flat"
    #: Eviction policy object or name (``policy_by_name``); must be a name
    #: to cross a process boundary.
    policy: "EvictionPolicy | str" = "lcfu"
    #: Embedding storage: ``"float32"`` (contiguous rows, decision-identical
    #: to per-element arrays), or None for standalone arrays.
    arena: str | None = "float32"
    #: Seconds of GIL-holding CPU a :class:`~repro.judger.SpinningJudger`
    #: burns per judged candidate (identical decisions, real CPU cost — for
    #: parallelism studies); 0 leaves the judger bare.
    judge_spin: float = 0.0
    #: Loop count pre-calibrated for that spin (None: calibrate on first use).
    judge_spin_iterations: int | None = None
    #: Durable home: warm-restore from its snapshot + journal, then journal
    #: every mutation back (:class:`~repro.store.persist.PersistentStore`),
    #: fsyncing once per ``fsync_every`` records.
    persist_dir: "str | Path | None" = None
    fsync_every: int = 8

    def __post_init__(self) -> None:
        # Named values are refused here, where keywords become a spec, so
        # every tier fails in the caller — a proc worker would otherwise be
        # the first to look them up, and die doing it.
        if self.index_kind != "flat":
            raise ValueError(f"index_kind={self.index_kind!r}: expected 'flat'")
        if self.arena not in ("float32", "none", None):
            raise ValueError(f"arena={self.arena!r}: expected 'float32' or None")
        if isinstance(self.policy, str):
            policy_by_name(self.policy)  # "unknown eviction policy 'x'; known: ..."

    @classmethod
    def of(cls, config: "AsteriaConfig | StackSpec | None", stack: dict) -> "StackSpec":
        """The spec a builder was handed: ``config`` plus ``**stack``
        keywords (a ready spec passes through). A keyword that is not a
        field raises ``TypeError`` naming it."""
        if isinstance(config, cls):
            return replace(config, **stack)
        return cls(config if config is not None else AsteriaConfig(), **stack)

    def shard(self, index: int, count: int) -> "StackSpec":
        """The spec of shard ``index`` of ``count``: a bounded capacity is
        ceil-split (so the total may exceed the request by up to ``count -
        1``) and a durable home becomes ``DIR/shard_NN`` — refused when
        ``DIR`` holds a layout written under another shard count. Compute
        every shard's spec before building any, so the refusal sees the
        directory as the last run left it."""
        config, home = self.config, self.persist_dir
        if config.capacity_items is not None and count > 1:
            config = replace(config, capacity_items=-(-config.capacity_items // count))
        if home is not None:
            home = shard_directory(home, index, count)
        return replace(self, config=config, persist_dir=home)


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
    *,
    judger: SimulatedJudger | None = None,
    judge_executor=None,
    resilience: ResilienceManager | None = None,
    name: str = "asteria",
    **stack,
) -> AsteriaEngine:
    """The full Asteria stack with simulated substrates.

    ``**stack`` are :class:`StackSpec` fields (``seed=``, ``policy=``,
    ``arena=``, ...); ``judger`` overrides the substrate as in
    :func:`build_semantic_cache`. ``resilience`` overrides the engine's
    default fault-tolerance policy (circuit breaker, negative cache, stale
    serving).
    """
    spec = StackSpec.of(config, stack)
    cache = build_semantic_cache(spec, judger=judger)
    return AsteriaEngine(
        cache,
        remote,
        spec.config,
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
    config: "AsteriaConfig | StackSpec | None" = None,
    *,
    judger: SimulatedJudger | None = None,
    **stack,
) -> AsteriaCache:
    """A standalone semantic cache (used for shared tiers and direct use).

    The one place a :class:`StackSpec` is read and the stack assembled —
    every engine, sharded-cache and worker builder comes through here, with
    the spec itself as ``config`` or with its fields as ``**stack``.
    ``judger`` replaces the seeded :class:`~repro.judger.SimulatedJudger`.
    """
    spec = StackSpec.of(config, stack)
    config, seed = spec.config, spec.seed
    embedder = CachedEmbedder(HashingEmbedder(seed=derive_seed(seed, "embedder")))
    shared_arena = build_arena(spec.arena, embedder.dim)
    index = FlatIndex(embedder.dim, arena=shared_arena)
    if judger is None:
        judger = SimulatedJudger(seed=derive_seed(seed, "judger"))
    if spec.judge_spin > 0:
        judger = SpinningJudger(judger, spec.judge_spin, spec.judge_spin_iterations)
    sine = Sine(
        embedder,
        index,
        judger,
        tau_sim=config.tau_sim,
        tau_lsm=config.tau_lsm,
        max_candidates=config.max_candidates,
    )
    policy = spec.policy
    cache = AsteriaCache(
        sine,
        capacity_items=config.capacity_items,
        default_ttl=config.default_ttl,
        policy=policy_by_name(policy) if isinstance(policy, str) else policy,
        staticity_scorer=StaticityScorer(seed=derive_seed(seed, "staticity")),
        staticity_ttl_scaling=config.staticity_ttl_scaling,
        arena=shared_arena,
    )
    if spec.persist_dir is not None:
        # Restores any prior state first, then journals every mutation.
        cache.persistent_store = PersistentStore(spec.persist_dir, spec.fsync_every)
        cache.restore_report = cache.persistent_store.attach(cache)
    return cache


def _serving_spec(config, stack: dict, tier: str) -> StackSpec:
    """The spec a concurrent tier serves under: prefetch and recalibration
    mutate engine-global state on the request path, so they must be off."""
    spec = StackSpec.of(config, stack)
    if spec.config.prefetch_enabled or spec.config.recalibration_enabled:
        raise ValueError(
            f"{tier} serving requires prefetch_enabled and "
            "recalibration_enabled off; run those studies sequentially"
        )
    return spec


def build_sharded_cache(
    config: "AsteriaConfig | StackSpec | None" = None,
    *,
    shards: int = 4,
    **stack,
) -> ShardedAsteriaCache:
    """A thread-safe sharded semantic cache for concurrent serving.

    Every shard is built from the same spec (see :meth:`StackSpec.shard`
    for what differs) and so the *same* seed: all shards share
    embedding/judging behaviour (those substrates are deterministic
    per-text), and with ``shards=1`` the result replays an unsharded
    :func:`build_semantic_cache` decision for decision. Each shard gets its
    own private embedding arena, so shard locks also cover arena mutation.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    spec = StackSpec.of(config, stack)
    specs = [spec.shard(shard, shards) for shard in range(shards)]
    sharded = ShardedAsteriaCache([build_semantic_cache(each) for each in specs])
    if spec.persist_dir is not None:
        sharded.persistent_store = ShardedPersistentStore(
            [shard.persistent_store for shard in sharded.shards]
        )
        sharded.restore_reports = [shard.restore_report for shard in sharded.shards]
    return sharded


def build_concurrent_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    *,
    shards: int = 4,
    workers: int = 4,
    io_pause_scale: float = 0.0,
    follower_timeout: float | None = None,
    resilience: ResilienceManager | None = None,
    name: str = "asteria-concurrent",
    **stack,
) -> ConcurrentEngine:
    """The full concurrent serving stack: sharded cache + worker-pool engine.

    ``shards`` partitions the cache (stable-hash routing on canonical query
    text, one lock per shard); ``workers`` sizes the serving thread pool and
    closed-loop load generator. ``io_pause_scale`` > 0 turns each simulated
    remote fetch latency into a real wall-clock pause so worker pools
    overlap remote I/O the way a deployed system would — see
    :class:`~repro.serving.concurrent.ConcurrentEngine`.
    """
    spec = _serving_spec(config, stack, "concurrent")
    cache = build_sharded_cache(spec, shards=shards)
    engine = AsteriaEngine(cache, remote, spec.config, resilience=resilience, name=name)
    return ConcurrentEngine(
        engine,
        workers=workers,
        io_pause_scale=io_pause_scale,
        follower_timeout=follower_timeout,
    )


def build_async_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    *,
    shards: int = 4,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    follower_timeout: float | None = None,
    hedge_percentile: float | None = None,
    hedge_min_samples: int = 20,
    batch_window: float = 0.0,
    batch_max: int = 16,
    resilience: ResilienceManager | None = None,
    name: str = "asteria-async",
    **stack,
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
    spec = _serving_spec(config, stack, "async")
    cache = build_sharded_cache(spec, shards=shards)
    engine = AsteriaEngine(cache, remote, spec.config, resilience=resilience, name=name)
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
    *,
    workers: int = 4,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    follower_timeout: float | None = None,
    batch_window: float = 0.0,
    batch_max: int = 16,
    resilience: ResilienceManager | None = None,
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
    **stack,
) -> ProcAsteriaEngine:
    """The multi-process serving stack: shard worker processes + async router.

    ``workers`` is both the process count and the shard count (one shard per
    process, routed by the same stable crc32 hash as the sharded cache, so
    ``workers=1`` replays the single-process engine's decisions exactly),
    and each worker rebuilds its shard from the same :meth:`StackSpec.shard`
    split as :func:`build_sharded_cache` — the spec crosses the spawn
    boundary inside a :class:`WorkerSpec`, so ``policy`` must be a *name*.
    With ``launch=False`` the pool is constructed but no process is spawned
    (call ``engine.pool.launch()`` later).

    ``supervise`` arms the :class:`WorkerSupervisor` (heartbeat + respawn
    with backoff; warm restore when the spec has a durable home);
    ``fault_domains`` arms the per-shard breakers that keep a dead shard's
    requests degrading locally (stale hit, else direct remote fetch)
    instead of failing the engine. ``proc_faults`` accepts a
    :class:`ProcFaultInjector` for chaos runs.
    """
    spec = _serving_spec(config, stack, "proc")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if spec.judge_spin > 0:
        # Calibrate the spin once here, in the quiet parent, and ship the
        # iteration count to every worker: a worker calibrating while its
        # siblings burn CPU on the same cores would measure a contended loop
        # rate, give itself less work per judge, and fake parallel speedup.
        spec = replace(spec, judge_spin_iterations=spin_iterations(spec.judge_spin))
    pool = WorkerPool(
        [WorkerSpec(shard, workers, spec.shard(shard, workers)) for shard in range(workers)],
        batch_window=batch_window,
        batch_max=batch_max,
        ann_only=spec.config.ann_only,
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
        spec.config,
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
