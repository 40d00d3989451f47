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
from repro.core import AsteriaCache, AsteriaConfig, AsteriaEngine, Sine
from repro.core.eviction import EvictionPolicy, policy_by_name
from repro.core.tiered import SharedTier
from repro.serving.aio import (
    AsyncAsteriaEngine,
    AsyncRemoteService,
)
from repro.serving.proc.engine import ProcAsteriaEngine
from repro.serving.proc.pool import WorkerPool
from repro.serving.proc.supervisor import WorkerSupervisor
from repro.serving.proc.worker import WorkerSpec
from repro.embedding import CachedEmbedder, HashingEmbedder
from repro.judger import SimulatedJudger
from repro.judger.staticity import StaticityScorer
from repro.core.resilience import ResilienceManager
from repro.network import FaultInjector, RemoteDataService, TokenBucket
from repro.network.ratelimit import RateLimiter
from repro.sim.distributions import Distribution, Uniform
from repro.sim.random import derive_seed
from repro.store.persist import PersistentStore, mark_routing, shard_directory
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
    #: field because the frozen benchmark passes it (ROADMAP item 3(e)).
    index_kind: str = "flat"
    #: Eviction policy object or name (``policy_by_name``); must be a name
    #: to cross a process boundary.
    policy: "EvictionPolicy | str" = "lcfu"
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
    ``persist_dir=``, ...); ``judger`` overrides the substrate as in
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
) -> AsteriaEngine:
    """The Agent_exact baseline: a traditional exact-match cache at the tool
    boundary. Lookups read only Sine's exact stage (any paraphrase misses),
    eviction is LRU — the classic KV-cache choice — and a lookup costs
    2 ms, a local KV probe with nothing to judge."""
    config = AsteriaConfig(
        capacity_items=capacity_items,
        default_ttl=default_ttl,
        match="exact",
        ann_latency=0.002,
    )
    return build_asteria_engine(remote, config, policy="lru", name=name)


def build_vanilla_engine(
    remote: RemoteDataService, name: str = "vanilla"
) -> AsteriaEngine:
    """The Agent_vanilla baseline: no tool is cacheable, so every request
    takes the flow's bypass branch to the remote."""
    return build_asteria_engine(remote, AsteriaConfig(cacheable_tools=()), name=name)


def build_semantic_cache(
    config: "AsteriaConfig | StackSpec | None" = None,
    *,
    judger: SimulatedJudger | None = None,
    **stack,
) -> AsteriaCache:
    """A standalone semantic cache (used for shared tiers and direct use).

    The one place a :class:`StackSpec` is read and the stack assembled —
    every engine and worker builder comes through here, with
    the spec itself as ``config`` or with its fields as ``**stack``.
    ``judger`` replaces the seeded :class:`~repro.judger.SimulatedJudger`.
    """
    spec = StackSpec.of(config, stack)
    config, seed = spec.config, spec.seed
    embedder = CachedEmbedder(HashingEmbedder(seed=derive_seed(seed, "embedder")))
    index = FlatIndex(embedder.dim)
    if judger is None:
        judger = SimulatedJudger(seed=derive_seed(seed, "judger"))
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
    )
    if spec.persist_dir is not None:
        # Restores any prior state first, then journals every mutation.
        cache.persistent_store = PersistentStore(spec.persist_dir, spec.fsync_every)
        cache.restore_report = cache.persistent_store.attach(cache)
    return cache


def build_async_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    *,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    resilience: ResilienceManager | None = None,
    name: str = "asteria-async",
    **stack,
) -> AsyncAsteriaEngine:
    """The in-process concurrent serving stack: the sync tier's engine, one
    cache and all, driven from an event loop.

    ``io_pause_scale`` > 0 turns each simulated remote fetch latency into a
    real awaited pause; ``max_inflight`` / ``default_deadline`` configure
    backpressure and deadlines — see
    :class:`~repro.serving.aio.AsyncAsteriaEngine`.
    """
    return AsyncAsteriaEngine(
        build_asteria_engine(remote, config, resilience=resilience, name=name, **stack),
        remote=AsyncRemoteService(remote, io_pause_scale=io_pause_scale),
        max_inflight=max_inflight,
        default_deadline=default_deadline,
    )


def build_proc_engine(
    remote: RemoteDataService,
    config: AsteriaConfig | None = None,
    *,
    workers: int = 4,
    io_pause_scale: float = 0.0,
    max_inflight: int = 256,
    default_deadline: float | None = None,
    resilience: ResilienceManager | None = None,
    name: str = "asteria-proc",
    launch: bool = True,
    supervise: bool = True,
    proc_faults=None,
    **stack,
) -> ProcAsteriaEngine:
    """The multi-process serving stack: shard worker processes + async router.

    ``workers`` is both the process count and the shard count: one cache per
    process, routed by :func:`~repro.core.sharding.shard_index_for`, so
    ``workers=1`` replays the single-process engine's decisions exactly.
    Each worker rebuilds its shard from :meth:`StackSpec.shard` — the spec
    crosses the spawn boundary inside a :class:`WorkerSpec`, so ``policy``
    must be a *name*. A durable home gets the ``DIR/shard_NN`` layout, one
    store per worker, each marked with its routing here. With
    ``launch=False`` the pool is constructed and the layout marked, but no
    process is spawned (call ``engine.pool.launch()`` later).

    ``supervise`` arms the :class:`WorkerSupervisor` (heartbeat + respawn
    with backoff; warm restore when the spec has a durable home). Either
    way, per-shard breakers keep a dead shard's requests degrading locally
    (stale hit, else direct remote fetch). ``proc_faults`` accepts a
    :class:`ProcFaultInjector` for chaos runs.

    Recalibration and prefetch run at the router; ``finetune_enabled`` is
    refused, because the judgers it would tune live in the workers.
    """
    spec = StackSpec.of(config, stack)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if spec.config.finetune_enabled:
        raise ValueError(
            "proc serving refuses finetune_enabled: the judgers live in the workers"
        )
    # Every spec before any marker, so the layout refusal in ``shard`` sees
    # ``DIR`` as the last run left it.
    specs = [spec.shard(index, workers) for index in range(workers)]
    for each in specs:
        if each.persist_dir is not None:
            mark_routing(each.persist_dir)
    pool = WorkerPool([WorkerSpec(i, workers, each) for i, each in enumerate(specs)])
    if supervise:
        # Before the engine: ProcAsteriaEngine wires its restart/breaker
        # callbacks onto pool.supervisor in its constructor.
        pool.supervisor = WorkerSupervisor(pool)
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
        name=name,
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
) -> AsteriaEngine:
    """One fleet node: an engine over a private L1 whose remote is the
    :class:`~repro.core.tiered.SharedTier` in front of ``remote``.

    Build the shared ``l2`` once with :func:`build_semantic_cache` (use the
    same ``seed`` so both tiers share embedder/judger behaviour), then one
    engine per node; ``engine.remote.hits`` counts the node's L2 hits.
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
    tier = SharedTier(l2, remote, config, l2_latency)
    return AsteriaEngine(l1, tier, config, name=name)
