"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig7 --set dataset_names='("musique",)' --set n_tasks=300
    python -m repro run table5
    python -m repro run-all --quick
    python -m repro stress --shards 4 --workers 8 --queries 2000
    python -m repro stress --engine async --rate 800 --deadline 0.2
    python -m repro stress --engine proc --workers 4 --rate 800
    python -m repro stress --chaos --fault-rate 0.3 --blackout 6:10
    python -m repro stress --trace-out trace.json --metrics-out metrics.prom
    python -m repro serve --workers 4 --port 7621
    python -m repro stress --connect 127.0.0.1:7621 --rate 400
    python -m repro stress --engine sync --persist /tmp/cache-home
    python -m repro replicate --sync-interval 0.5
    python -m repro replicate --listen 7633   # region A
    python -m repro replicate --peer 127.0.0.1:7633   # region B
    python -m repro stress --engine proc --series-out series.json
    python -m repro slo --series series.json --engine proc
    python -m repro serve --workers 4 --slo

``--set key=value`` pairs are parsed with ``ast.literal_eval`` (falling back
to a plain string), so ints, floats, tuples, and booleans all work.

``stress`` exercises the real serving layers against a skewed synthetic
workload and prints wall-clock throughput — unlike the experiments, which
run on the virtual clock. ``--engine thread`` (default) drives the
closed-loop worker pool; ``--engine async`` drives the asyncio front-end
with an *open-loop* fixed arrival rate, so backpressure (``overloaded``)
and deadlines (``deadline_exceeded``) are measured honestly; ``--engine
proc`` drives the multi-process shard-worker tier the same open-loop way;
``--engine sync`` serves sequentially through the plain engine as a
baseline; ``--connect HOST:PORT`` drives a *running* ``serve`` process over
a real socket instead of building an engine in this process.

``--persist DIR`` (stress and serve) gives the cache a durable home:
warm-start from DIR's snapshot+journal, journal every mutation back, and
flush+checkpoint on graceful stop. ``replicate`` runs the cross-region
replication layer — a two-node simulation on the virtual clock by
default, or one real region of a TCP pair via ``--listen``/``--peer``.

``serve`` boots the multi-process tier behind a TCP front door and runs
until SIGTERM/SIGINT, then drains in-flight requests and exits cleanly.
Every stress arm installs the same signal handling: a TERM or Ctrl-C stops
the load loop early, finishes what's in flight, and still writes every
requested artefact (``--trace-out`` / ``--metrics-out`` / ``--series-out``).

Every arm that builds an engine takes the observability flags (one
``stress`` body serves them all): ``--trace-out`` writes a Chrome
``trace_event`` file (open in Perfetto / chrome://tracing), ``--metrics-out``
a Prometheus text exposition of the run's counters and histograms, and
``--series-out`` a JSON time-series sampled live by the snapshot recorder.
With ``--engine proc``, ``--trace-out`` traces cross the process boundary:
worker-side embed/ann_search/judge spans ride reply frames back and land
on per-shard lanes under the router's request spans.

``slo`` evaluates burn-rate SLOs (p99 latency, served fraction, staleness)
against a ``--series-out`` dump; exit code 1 means at least one SLO is
firing. ``serve --slo`` runs the same evaluation live inside the server,
surfaced through the ``health`` op.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Callable

from repro.experiments import (
    admission_study,
    coalescing_study,
    fig1c_breakdown,
    judger_quality,
    freshness_study,
    fig2_zipf,
    fig3_bursts,
    fig7_skewed,
    fig8_trend,
    fig9_swebench,
    fig10_concurrency,
    fig11_breakdown,
    fig12_api_calls,
    fig13_accuracy,
    recalibration_overhead,
    table2_file_freq,
    table4_ratelimit,
    table5_cost,
    table6_lcfu,
    table7_colocation,
    tau_sweep,
    tiered_fleet,
)

#: name -> (runner, description). Names follow the paper's artefacts.
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig1c": (fig1c_breakdown.run, "Search-R1 latency breakdown"),
    "fig2": (fig2_zipf.run, "Zipfian search interest by window"),
    "fig3": (fig3_bursts.run, "bursty, correlated query patterns"),
    "table2": (table2_file_freq.run, "SWE-bench file access frequencies"),
    "fig7": (fig7_skewed.run, "skewed search workloads vs cache ratio"),
    "fig8": (fig8_trend.run, "trend-driven workload vs cache ratio"),
    "fig9": (fig9_swebench.run, "SWE-bench workload vs cache ratio"),
    "fig10": (fig10_concurrency.run, "throughput vs request concurrency"),
    "fig11": (fig11_breakdown.run, "per-request latency breakdown"),
    "fig12": (fig12_api_calls.run, "API calls and retry ratio"),
    "table4": (table4_ratelimit.run, "throughput w/ and w/o rate limit"),
    "table5": (table5_cost.run, "cost analysis across configurations"),
    "fig13": (fig13_accuracy.run, "generation quality (Exact Match)"),
    "table6": (table6_lcfu.run, "LCFU vs LRU/LFU eviction"),
    "table7": (table7_colocation.run, "co-location efficiency"),
    "recalibration": (recalibration_overhead.run, "recalibration overhead"),
    "drift": (recalibration_overhead.run_drift, "recalibration under drift"),
    "tau-sweep": (tau_sweep.run, "tau_sim x tau_lsm trade-off sweep"),
    "freshness": (freshness_study.run, "TTL aging vs stale servings"),
    "fleet": (tiered_fleet.run, "shared-L2 fleet scaling (extension)"),
    "admission": (admission_study.run, "always-admit vs doorkeeper (extension)"),
    "judger-quality": (judger_quality.run, "LSM error-rate sensitivity (extension)"),
    "coalescing": (coalescing_study.run, "flash-crowd miss coalescing (extension)"),
}

#: Reduced-scale overrides for ``run-all --quick``.
QUICK_OVERRIDES: dict[str, dict] = {
    "fig1c": {"n_tasks": 40},
    "fig3": {"duration": 240.0},
    "table2": {"n_issues": 200},
    "fig7": {"dataset_names": ("musique",), "cache_ratios": (0.4,), "n_tasks": 300},
    "fig8": {"cache_ratios": (0.4,), "duration": 200.0},
    "fig9": {"cache_ratios": (0.4,), "n_issues": 120},
    "fig10": {"concurrency_levels": (1, 8), "n_tasks": 300},
    "fig11": {"n_requests": 120},
    "fig12": {"n_tasks": 400},
    "table4": {"n_tasks": 300},
    "table5": {"n_tasks": 200},
    "fig13": {"dataset_names": ("strategyqa",), "n_tasks": 150},
    "table6": {"n_tasks": 400, "trials": 2},
    "table7": {"n_tasks": 200},
    "recalibration": {"n_tasks": 300},
    "drift": {"phase_tasks": 200},
    "tau-sweep": {
        "tau_sim_values": (0.7, 0.99),
        "tau_lsm_values": (0.02, 0.9),
        "n_queries": 300,
    },
    "freshness": {"n_queries": 500},
    "fleet": {"node_counts": (1, 4), "n_queries": 400},
    "admission": {"n_queries": 600},
    "judger-quality": {"flip_rates": (0.0, 0.1), "n_tasks": 150},
    "coalescing": {"n_clients": 60},
}


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _command_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    print("Available experiments (python -m repro run <name>):\n")
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def _command_run(name: str, overrides: dict) -> int:
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: python -m repro list")
        return 2
    runner, _ = EXPERIMENTS[name]
    result = runner(**overrides)
    result.print_table()
    return 0


def _stress_queries(arguments) -> list:
    import numpy as np

    from repro.core import Query

    rng = np.random.default_rng(arguments.seed)
    # Zipf-skewed draws over a fixed fact population: the repeats that make
    # caching (and single-flight) matter, with a long tail of cold misses.
    ranks = np.minimum(
        rng.zipf(arguments.zipf_s, size=arguments.queries), arguments.population
    )
    return [
        Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
        for rank in ranks
    ]


def _parse_blackouts(specs: list[str]) -> list[tuple[float, float]]:
    """Parse repeated ``--blackout START:END`` windows (simulated seconds)."""
    windows = []
    for spec in specs:
        start_raw, sep, end_raw = spec.partition(":")
        if not sep:
            raise SystemExit(f"--blackout expects START:END, got {spec!r}")
        try:
            windows.append((float(start_raw), float(end_raw)))
        except ValueError:
            raise SystemExit(f"--blackout expects numbers, got {spec!r}") from None
    return windows


def _chaos_setup(arguments):
    """Build the (fault_injector, resilience) pair for ``stress --chaos``.

    Returns ``(None, None)`` when chaos is off so the stress path stays
    byte-identical to the pre-fault-tolerance behaviour. The fault rate is
    split 2/3 transient errors + 1/3 timeouts, matching the chaos benchmark.
    """
    if not arguments.chaos:
        return None, None
    from repro.core.resilience import CircuitBreaker, ResilienceManager
    from repro.network import FaultInjector

    injector = FaultInjector(
        error_rate=arguments.fault_rate * 2.0 / 3.0,
        timeout_rate=arguments.fault_rate / 3.0,
        blackouts=_parse_blackouts(arguments.blackout),
        seed=arguments.seed,
    )
    resilience = ResilienceManager(
        breaker=CircuitBreaker(window=16, min_samples=8, open_seconds=0.5),
        negative_ttl=0.3,
        stale_serve=not arguments.no_stale,
        seed=arguments.seed,
    )
    return injector, resilience


def _stop_on_signals():
    """A ``threading.Event`` set by SIGINT/SIGTERM plus a restore callback.

    Lets Ctrl-C or a supervisor's TERM end a stress run early but *cleanly*:
    the load loop drains in-flight work, the report covers what actually
    ran, and the observability artefacts still land on disk.
    """
    import signal
    import threading

    stop = threading.Event()
    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, lambda *_: stop.set())
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    def restore() -> None:
        for sig, old in previous.items():
            signal.signal(sig, old)

    return stop, restore


def _run_with_stop(body):
    """``asyncio.run(body(stop))``: the asyncio twin of
    :func:`_stop_on_signals`, with ``stop`` an ``asyncio.Event`` that
    SIGINT/SIGTERM set on the loop the body runs on."""
    import asyncio
    import signal

    async def runner():
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            return await body(stop)
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    return asyncio.run(runner())


def _host_port(raw: str, flag: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` flag value (``:PORT`` means loopback)."""
    host, _, port_raw = raw.rpartition(":")
    try:
        return host or "127.0.0.1", int(port_raw)
    except ValueError:
        raise SystemExit(f"{flag} expects HOST:PORT, got {raw!r}") from None


def _engine_breaker(engine):
    """The circuit breaker behind a serving engine, or None."""
    inner = getattr(engine, "engine", engine)
    return getattr(inner.resilience, "breaker", None)


def _metrics_rig(engine, label, series_interval=None):
    """Registry + engine instrument (breakers wired) and, when
    ``series_interval`` is given, a started snapshot recorder probing the
    engine. Returns ``(registry, instrument, recorder)``."""
    from repro.obs import EngineInstrument, MetricsRegistry, SnapshotRecorder

    registry = MetricsRegistry()
    instrument = EngineInstrument(registry, label)
    breaker = _engine_breaker(engine)
    if breaker is not None:
        instrument.wire_breaker(breaker)
    shard_breakers = getattr(engine, "shard_breakers", None)
    if shard_breakers:
        instrument.wire_shard_breakers(shard_breakers)
    if series_interval is None:
        return registry, instrument, None
    recorder = SnapshotRecorder(registry, interval=series_interval)
    instrument.install_probes(
        recorder,
        engine.metrics,
        cache=engine.cache,
        inflight_fn=(
            (lambda: engine.inflight)
            if hasattr(type(engine), "inflight")
            else None
        ),
        breaker=breaker,
    )
    recorder.start()
    return registry, instrument, recorder


def _obs_setup(arguments, engine, label):
    """Build the observability rig requested by the stress flags.

    Returns ``(tracer, registry, instrument, recorder)``, with None for any
    piece not requested. The tracer is attached to ``engine`` immediately;
    the snapshot recorder starts its sampling thread immediately.
    """
    tracer = registry = instrument = recorder = None
    if arguments.trace_out:
        if getattr(arguments, "trace_sample", 1) > 1:
            from repro.obs import SamplingTracer

            tracer = SamplingTracer(sample_every=arguments.trace_sample)
        else:
            from repro.obs import Tracer

            tracer = Tracer()
        engine.set_tracer(tracer)
    if arguments.metrics_out or arguments.series_out:
        registry, instrument, recorder = _metrics_rig(
            engine,
            label,
            arguments.snapshot_interval if arguments.series_out else None,
        )
    return tracer, registry, instrument, recorder


def _obs_finish(arguments, engine, tracer, registry, instrument, recorder) -> None:
    """Flush the observability artefacts and print where they landed."""
    if recorder is not None:
        recorder.stop()  # takes a final sample, syncing the registry
        recorder.save_json(arguments.series_out)
        print(
            f"  series written to {arguments.series_out} "
            f"({len(recorder.times())} samples)"
        )
    if instrument is not None:
        instrument.sync(
            engine.metrics,
            cache=engine.cache,
            inflight=getattr(engine, "inflight", None),
        )
        if tracer is not None:
            # Request-span trace ids become latency-histogram exemplars, so
            # a hot bucket links back to concrete traces in --trace-out.
            instrument.attach_exemplars(tracer)
    if arguments.metrics_out:
        with open(arguments.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.render())
        print(
            f"  metrics written to {arguments.metrics_out} "
            f"({len(registry)} families)"
        )
    if tracer is not None:
        tracer.export_chrome(arguments.trace_out)
        sampling = (
            f", sampled={tracer.sampled}/{tracer.sampled + tracer.skipped}"
            if hasattr(tracer, "sampled")
            else ""
        )
        print(
            f"  trace written to {arguments.trace_out} "
            f"({len(tracer.spans())} spans, dropped={tracer.dropped}{sampling})"
        )


def _maybe_profile(arguments):
    """Context manager wrapping the serving loop in cProfile when
    ``--profile`` is set; prints the top 25 functions by cumulative time."""
    import contextlib

    if not getattr(arguments, "profile", False):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def profiled():
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            print("profile: top 25 functions by cumulative time")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)

    return profiled()


def _persist_banner(arguments, engine) -> None:
    """One line on what ``--persist`` recovered (or that it started cold)."""
    if not getattr(arguments, "persist", None):
        return
    cache = getattr(engine, "cache", None)
    report = getattr(cache, "restore_report", None)
    if report is not None:
        if report.cold:
            state = "cold start"
        else:
            state = (
                f"warm start: {report.restored_items} items "
                f"(snapshot={report.snapshot_restored}, "
                f"journal_replayed={report.journal_applied})"
            )
        print(f"persist: {arguments.persist} — {state}")
        return
    reports = getattr(cache, "restore_reports", None)
    if reports is not None:
        restored = sum(r.restored_items for r in reports)
        if all(r.cold for r in reports):
            state = "cold start"
        else:
            replayed = sum(r.journal_applied for r in reports)
            state = (
                f"warm start: {restored} items across {len(reports)} shards "
                f"(journal_replayed={replayed})"
            )
        print(f"persist: {arguments.persist} — {state}")
        return
    # Proc tier: each worker owns its shard's store and reports via stats.
    print(f"persist: {arguments.persist} (per-worker shard journals)")


def _persist_close(arguments, engine) -> None:
    """Graceful-stop flush: checkpoint and close the cache's store, if any.

    The proc tier needs nothing here — each worker flushes its own journal
    in its SIGTERM/shutdown path.
    """
    if not getattr(arguments, "persist", None):
        return
    store = getattr(getattr(engine, "cache", None), "persistent_store", None)
    if store is not None:
        store.close(checkpoint=True)
        print(f"persist: checkpointed to {arguments.persist}")


def _stack_flags(arguments) -> dict:
    """The stack knobs every engine-building arm reads from its flags."""
    return {
        "seed": arguments.seed,
        "judge_spin": arguments.judge_spin,
        "persist_dir": arguments.persist,
        "fsync_every": arguments.fsync_every,
    }


def _build_sync(arguments, remote, resilience):
    from repro.factory import build_asteria_engine

    return build_asteria_engine(remote, resilience=resilience, **_stack_flags(arguments))


def _build_thread(arguments, remote, resilience):
    from repro.factory import build_concurrent_engine

    return build_concurrent_engine(
        remote,
        shards=arguments.shards,
        workers=arguments.workers,
        io_pause_scale=arguments.io_scale,
        resilience=resilience,
        **_stack_flags(arguments),
    )


def _build_async(arguments, remote, resilience):
    from repro.factory import build_async_engine

    return build_async_engine(
        remote,
        shards=arguments.shards,
        io_pause_scale=arguments.io_scale,
        max_inflight=arguments.max_inflight,
        default_deadline=arguments.deadline,
        resilience=resilience,
        **_stack_flags(arguments),
    )


def _build_proc(arguments, remote, resilience=None):
    """``--workers`` processes each own one cache shard; the router in this
    process does the fetching, single-flight, and metric accounting. Shared
    by ``stress --engine proc`` and ``serve``."""
    from repro.factory import build_proc_engine

    proc_faults = None
    if getattr(arguments, "chaos_workers", False):
        from repro.serving.proc import ProcFaultInjector

        kill_at = arguments.kill_at
        if kill_at is None:
            kill_at = max(1, arguments.queries // 3)
        proc_faults = ProcFaultInjector(
            kill_shard=arguments.kill_shard, kill_at=kill_at, seed=arguments.seed
        )
    return build_proc_engine(
        remote,
        workers=arguments.workers,
        io_pause_scale=arguments.io_scale,
        max_inflight=arguments.max_inflight,
        default_deadline=arguments.deadline,
        batch_window=arguments.batch_window,
        batch_max=arguments.batch_max,
        resilience=resilience,
        supervise=not arguments.no_supervise,
        fault_domains=not arguments.no_fault_domains,
        proc_faults=proc_faults,
        **_stack_flags(arguments),
    )


def _shard_inserts(inserts: list) -> str:
    return f"  per-shard inserts={inserts} (total={sum(inserts)})"


def _drive_serial(arguments, engine, queries):
    """sync: one caller on this thread; SIGINT/SIGTERM set a
    ``threading.Event`` the loop polls."""
    from repro.serving.load import run_serial

    stop, restore = _stop_on_signals()
    try:
        return run_serial(engine, queries, time_step=0.01, stop=stop), []
    finally:
        restore()


def _drive_threads(arguments, engine, queries):
    """thread: ``--workers`` closed-loop callers on the engine's threads,
    polling the same kind of stop event."""
    stop, restore = _stop_on_signals()
    try:
        with engine:
            report = engine.run_closed_loop(queries, time_step=0.01, stop=stop)
    finally:
        restore()
    inserts = [stats.inserts for stats in engine.cache.stats_per_shard()]
    return report, [_shard_inserts(inserts)]


def _drive_loop(arguments, engine, queries):
    """async / proc: arrivals at ``--rate`` on an event loop, so
    backpressure and deadlines are measured honestly."""
    from repro.serving.aio import run_open_loop

    pool = getattr(engine, "pool", None)
    faults = getattr(engine, "proc_faults", None)

    async def body(stop):
        try:
            return await run_open_loop(
                engine, queries, rate=arguments.rate, time_step=0.01, stop=stop
            )
        finally:
            if pool is not None:
                if faults is not None and pool.supervisor is not None:
                    # Let an in-flight respawn land so the chaos summary
                    # reports the recovery, not a snapshot taken mid-respawn.
                    await pool.supervisor.settle()
                await engine.aclose()

    report = _run_with_stop(body)
    notes = [f"  peak_inflight_fetches={engine.remote.max_inflight}"]
    if faults is not None:
        notes.append(
            f"  chaos: worker_kills={faults.summary()['kills']} "
            f"worker_restarts={engine.metrics.worker_restarts} "
            f"shard_down_fetches={engine.metrics.shard_down_fetches} "
            f"served_fraction={report.served_fraction:.4f}"
        )
        notes.append(f"  shard_breakers={[b.state for b in engine.shard_breakers]}")
    if pool is not None:
        notes.append(_shard_inserts([c.last_stats[0] for c in pool.clients]))
    return report, notes


def _drive_socket(arguments, engine, queries):
    """``--connect``: the same open loop over a real socket against a running
    ``python -m repro serve`` (no engine in this process)."""
    from repro.serving.proc.client import ProcClient, run_open_loop_socket

    host, port = _host_port(arguments.connect, "--connect")

    async def body(stop):
        client = await ProcClient.connect(host, port)
        try:
            report = await run_open_loop_socket(
                client,
                queries,
                rate=arguments.rate,
                time_step=0.01,
                deadline=arguments.deadline,
                stop=stop,
            )
            return report, await client.health(), client.reconnects
        finally:
            await client.aclose()

    report, health, reconnects = _run_with_stop(body)
    shards = f" shards={health['shards']}" if "shards" in health else ""
    return report, [
        f"  outcomes={report.outcomes} reconnects={reconnects}",
        f"  server: workers={health['workers']} requests={health['requests']} "
        f"inflight={health['inflight']} usage={health['usage']} "
        f"worker_restarts={health.get('worker_restarts', 0)}{shards}",
    ]


#: ``--engine`` (or ``--connect`` → "socket") → how that tier is built, how
#: it is driven, and which of its flags the banner line shows.
_STRESS_TIERS = {
    "sync": (_build_sync, _drive_serial, ""),
    "thread": (_build_thread, _drive_threads, "workers={workers} shards={shards} "),
    "async": (
        _build_async,
        _drive_loop,
        "rate={rate:.0f}/s shards={shards} max_inflight={max_inflight} ",
    ),
    "proc": (
        _build_proc,
        _drive_loop,
        "workers={workers} rate={rate:.0f}/s max_inflight={max_inflight} ",
    ),
    "socket": (lambda *_: None, _drive_socket, "target={connect} "),
}


def _command_stress(arguments) -> int:
    """Wall-clock stress of one serving tier: sequential baseline, thread
    pool (closed loop), asyncio or multi-process shard workers (open loop),
    or a socket client against a running ``serve`` process."""
    from repro.factory import build_remote

    tier = "socket" if arguments.connect else arguments.engine.replace("threads", "thread")
    build, drive, shape = _STRESS_TIERS[tier]
    queries = _stress_queries(arguments)
    injector, resilience = _chaos_setup(arguments)
    engine = build(
        arguments, build_remote(seed=arguments.seed, fault_injector=injector), resilience
    )
    local = engine is not None  # --connect: the engine lives in the server
    if local:
        _persist_banner(arguments, engine)
    obs = _obs_setup(arguments, engine, tier) if local else None
    try:
        with _maybe_profile(arguments):
            report, notes = drive(arguments, engine, queries)
        print(f"engine={tier} {shape.format(**vars(arguments))}requests={report.requests}")
        if report.requests < len(queries):
            print(f"  stopped early by signal ({report.requests}/{len(queries)})")
        print(
            f"  wall={report.wall_seconds:.3f}s "
            f"throughput={report.throughput_rps:.1f} req/s"
        )
        if report.mode == "open":
            print(
                f"  completed={report.completed} overloaded={report.overloaded} "
                f"deadline_exceeded={report.deadline_exceeded}"
            )
        if arguments.chaos or not local:
            print(
                f"  served_fraction={report.served_fraction:.4f} "
                f"stale_served={report.stale_served} failed={report.failed}"
            )
        if local:
            metrics = engine.metrics
            print(
                f"  hit_rate={report.hit_rate:.3f} hits={report.hits} "
                f"misses={report.misses} coalesced={report.coalesced_misses} "
                f"remote_calls={report.remote_calls} hedged={report.hedged_fetches}"
            )
            print(
                f"  p50_sim={metrics.total_latency.p50 * 1000:.2f}ms "
                f"p99_sim={metrics.total_latency.p99 * 1000:.2f}ms"
            )
            if report.p99_wall is not None:
                print(
                    f"  p50_wall={report.p50_wall * 1000:.2f}ms "
                    f"p99_wall={report.p99_wall * 1000:.2f}ms"
                )
            if arguments.chaos:
                print(
                    f"  breaker_open_rejects={metrics.breaker_open_rejects} "
                    f"negative_cache_hits={metrics.negative_cache_hits} "
                    f"background_refreshes={metrics.background_refreshes}"
                )
        for note in notes:
            print(note)
    finally:
        if local:
            _obs_finish(arguments, engine, *obs)
            _persist_close(arguments, engine)
    return 0


def _command_serve(arguments) -> int:
    """Boot the multi-process socket server; run until SIGTERM/SIGINT, then
    drain in-flight requests, stop the workers, and exit 0."""
    import asyncio

    from repro.factory import build_remote
    from repro.serving.proc.server import ProcServer

    engine = _build_proc(arguments, build_remote(seed=arguments.seed))
    _persist_banner(arguments, engine)
    slo_engine = recorder = None
    if arguments.slo:
        from repro.obs import SLOEngine, default_slos

        registry, _, recorder = _metrics_rig(engine, "proc", arguments.slo_interval)
        slo_engine = SLOEngine(
            default_slos("proc"), recorder=recorder, registry=registry
        )
    server = ProcServer(
        engine,
        host=arguments.host,
        port=arguments.port,
        slo=slo_engine,
    )

    async def runner():
        await server.start()
        print(
            f"serving on {server.host}:{server.port} "
            f"workers={arguments.workers} "
            f"slo={'on' if slo_engine is not None else 'off'} "
            f"(SIGTERM/SIGINT drains and exits)",
            flush=True,
        )
        await server.run()

    try:
        asyncio.run(runner())
    finally:
        if recorder is not None:
            recorder.stop(final_sample=False)
    metrics = engine.metrics
    print(
        f"drained: requests={server.requests_served} "
        f"hit_rate={metrics.hit_rate:.3f} hits={metrics.hits} "
        f"misses={metrics.misses} coalesced={metrics.coalesced_misses}"
    )
    return 0


def _command_slo(arguments) -> int:
    """Evaluate the stock burn-rate SLOs against a ``--series-out`` dump.

    Exit codes: 0 all quiet, 1 at least one SLO firing, 2 unusable input
    (missing file, bad JSON, no samples)."""
    import json

    from repro.obs import default_slos, evaluate_slos, format_statuses

    try:
        with open(arguments.series, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"slo: cannot read series file {arguments.series!r}: {exc}")
        return 2
    if not isinstance(snapshot, dict) or not snapshot.get("t"):
        print(f"slo: {arguments.series!r} has no samples to evaluate")
        return 2
    specs = default_slos(
        engine=arguments.engine,
        p99_threshold=arguments.p99_threshold,
        served_threshold=arguments.served_threshold,
        stale_threshold=arguments.stale_threshold,
        fast_window=arguments.fast_window,
        slow_window=arguments.slow_window,
    )
    statuses = evaluate_slos(specs, snapshot)
    evaluated = [s for s in statuses if s.slow_samples > 0]
    print(
        f"slo: {len(snapshot['t'])} samples, engine={arguments.engine}, "
        f"{len(evaluated)}/{len(statuses)} series present"
    )
    print(format_statuses(statuses))
    if not evaluated:
        print(
            "slo: none of the SLO series exist in this dump "
            "(was it recorded with --series-out for this engine?)"
        )
        return 2
    firing = [status.name for status in statuses if status.firing]
    if firing:
        print(f"slo: FIRING: {', '.join(firing)}")
        return 1
    return 0


def _command_replicate(arguments) -> int:
    """Cross-region replication: a local two-node simulation by default, or
    one real region of a pair with ``--listen PORT`` / ``--peer HOST:PORT``."""
    if arguments.peer and arguments.listen is not None:
        raise SystemExit("--peer and --listen are mutually exclusive")
    if arguments.peer is None and arguments.listen is None:
        return _replicate_local(arguments)
    return _replicate_socket(arguments)


def _replicate_local(arguments) -> int:
    """Two in-process regions on the simulated clock, exchanging diffs
    through asymmetric simulated WAN links; prints the convergence curve."""
    from repro.factory import build_asteria_engine, build_remote
    from repro.store.replication import ReplicaNode, ReplicationDriver

    seed = arguments.seed if arguments.seed is not None else 0
    arguments.seed = seed
    queries_a = _stress_queries(arguments)
    arguments.seed = seed + 1  # different draw order, same fact population
    queries_b = _stress_queries(arguments)
    engine_a = build_asteria_engine(build_remote(seed=seed), seed=seed)
    engine_b = build_asteria_engine(build_remote(seed=seed), seed=seed)
    node_a = ReplicaNode("A", engine_a.cache)
    node_b = ReplicaNode("B", engine_b.cache)
    driver = ReplicationDriver(
        node_a,
        node_b,
        sync_interval=arguments.sync_interval,
        latency_ab=arguments.latency_ab,
        latency_ba=arguments.latency_ba,
    )
    time_step = 0.01
    total = max(len(queries_a), len(queries_b))
    sample_every = max(1, total // 8)
    print(
        f"replicate (local sim): {total} queries/region "
        f"sync_interval={arguments.sync_interval}s "
        f"latency A->B={arguments.latency_ab}s B->A={arguments.latency_ba}s"
    )
    for i in range(total):
        now = i * time_step
        if i < len(queries_a):
            engine_a.handle(queries_a[i], now=now)
        if i < len(queries_b):
            engine_b.handle(queries_b[i], now=now)
        driver.tick(now)
        if i and i % sample_every == 0:
            sample = driver.agreement()
            print(
                f"  t={sample.t:7.2f}s agreement={sample.agreement:.3f} "
                f"union={sample.union_keys} stale={sample.stale_keys} "
                f"max_staleness={sample.max_staleness:.2f}s"
            )
    driver.drain(total * time_step)
    final = driver.agreement()
    print(
        f"  final: agreement={final.agreement:.3f} union={final.union_keys} "
        f"stale={final.stale_keys}"
    )
    print(
        f"  link A->B: frames={driver.link_ab.frames_sent} "
        f"bytes={driver.link_ab.bytes_sent}; "
        f"link B->A: frames={driver.link_ba.frames_sent} "
        f"bytes={driver.link_ba.bytes_sent}"
    )
    for node in (node_a, node_b):
        stats = node.stats()
        print(
            f"  node {stats['node']}: items={len(node.cache)} "
            f"out={stats['records_out']} in={stats['records_in']} "
            f"applied_upserts={stats['applied_upserts']} "
            f"invalidations={stats['applied_invalidations']} "
            f"lww_rejects={stats['lww_rejects']}"
        )
    return 0 if final.agreement == 1.0 else 1


def _replicate_socket(arguments) -> int:
    """One region of a real pair: serve its own workload, exchange diffs
    with the peer process over TCP, score convergence via digest exchange."""
    from repro.factory import build_asteria_engine, build_remote
    from repro.store import replnet
    from repro.store.replication import ReplicaNode

    listening = arguments.listen is not None
    seed = (
        arguments.seed
        if arguments.seed is not None
        else (0 if listening else 1)
    )
    arguments.seed = seed
    node_id = arguments.node_id or ("A" if listening else "B")
    queries = _stress_queries(arguments)
    engine = build_asteria_engine(build_remote(seed=seed), seed=seed)
    node = ReplicaNode(node_id, engine.cache)
    workload = (
        (lambda now, query=query: engine.handle(query, now=now))
        for query in queries
    )
    stop, restore = _stop_on_signals()
    try:
        if listening:
            server = replnet.open_listener(arguments.host, arguments.listen)
            port = server.getsockname()[1]
            print(
                f"replica {node_id} listening on {arguments.host}:{port} "
                f"(waiting for --peer)",
                flush=True,
            )
            sock = replnet.accept_peer(server, stop=stop)
            if sock is None:
                print("no peer connected; exiting")
                return 1
        else:
            sock = replnet.connect_peer(*_host_port(arguments.peer, "--peer"))
        report = replnet.replicate_session(
            node,
            sock,
            workload=workload,
            sync_interval=arguments.sync_interval,
            stop=stop,
            pace=arguments.pace,
        )
    finally:
        restore()
    print(
        f"replica {report['node']} <-> peer {report['peer']}: "
        f"steps={report['steps']} items={report['items']} "
        f"frames out={report['frames_out']} in={report['frames_in']}"
    )
    stats = report["replication"]
    print(
        f"  records out={stats['records_out']} in={stats['records_in']} "
        f"applied_upserts={stats['applied_upserts']} "
        f"invalidations={stats['applied_invalidations']} "
        f"lww_rejects={stats['lww_rejects']}"
    )
    agreement = report["agreement"]
    if agreement is None:
        print("  convergence: peer left before the digest exchange")
        return 1
    print(
        f"  convergence: agreement={agreement['agreement']:.3f} "
        f"union={agreement['union_keys']} stale={agreement['stale_keys']}"
    )
    return 0 if agreement["agreement"] == 1.0 else 1


def _command_run_all(quick: bool) -> int:
    for name, (runner, _) in EXPERIMENTS.items():
        overrides = QUICK_OVERRIDES.get(name, {}) if quick else {}
        result = runner(**overrides)
        result.print_table()
    return 0


def _add_persist_arguments(parser) -> None:
    """``--persist`` flags shared by the stress and serve arms."""
    parser.add_argument(
        "--persist",
        default=None,
        metavar="DIR",
        help="durable cache home: warm-start from DIR's snapshot+journal "
        "and journal every mutation back to it (sharded engines use one "
        "shard_NN subdirectory per shard)",
    )
    parser.add_argument(
        "--fsync-every",
        type=int,
        default=8,
        metavar="N",
        help="fsync the journal every N records (default 8; kill -9 loses "
        "at most the last unfsynced batch)",
    )


def _add_proc_arguments(parser) -> None:
    """Flags shared by every arm that can touch the proc tier (plus
    ``--judge-spin``, which all engines honour)."""
    parser.add_argument(
        "--judge-spin",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="burn ~SECONDS of GIL-holding CPU inside every judge call "
        "(makes the judge stage honestly CPU-bound; default 0 = off)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-shard lookup accumulation window before a frame ships "
        "(default 0: every lookup goes out on the next loop tick)",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="lookups per shard frame before the window flushes early "
        "(default 16)",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable the worker supervisor (a dead shard worker stays "
        "dead; per-shard breakers still degrade its requests)",
    )
    parser.add_argument(
        "--no-fault-domains",
        action="store_true",
        help="disable per-shard fault isolation (a worker death becomes an "
        "engine-level failure, the pre-supervision behaviour)",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("name", help="experiment name (see `list`)")
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a runner keyword argument (repeatable)",
    )
    all_parser = commands.add_parser("run-all", help="run every experiment")
    all_parser.add_argument(
        "--quick", action="store_true", help="reduced-scale sweep"
    )
    stress_parser = commands.add_parser(
        "stress", help="wall-clock stress of the concurrent serving layer"
    )
    stress_parser.add_argument(
        "--engine",
        choices=("sync", "thread", "threads", "async", "proc"),
        default="thread",
        help="sync: sequential baseline; thread (default; 'threads' is an "
        "alias): closed-loop worker pool; async: open-loop asyncio "
        "front-end; proc: open-loop multi-process shard workers "
        "(--workers = process count)",
    )
    stress_parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive a running `python -m repro serve` over a real socket "
        "instead of building an engine (open loop at --rate)",
    )
    stress_parser.add_argument(
        "--shards", type=int, default=4, help="cache shard count (default 4)"
    )
    stress_parser.add_argument(
        "--workers", type=int, default=8, help="serving worker threads (default 8)"
    )
    stress_parser.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="async open-loop arrival rate, requests/s (default 500)",
    )
    stress_parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="async admission-queue depth before overload rejection "
        "(default 256)",
    )
    stress_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="async per-request deadline in wall seconds (default none)",
    )
    stress_parser.add_argument(
        "--queries", type=int, default=2000, help="requests to serve (default 2000)"
    )
    stress_parser.add_argument(
        "--population",
        type=int,
        default=256,
        help="distinct facts in the workload (default 256)",
    )
    stress_parser.add_argument(
        "--zipf-s", type=float, default=1.3, help="Zipf skew exponent (default 1.3)"
    )
    stress_parser.add_argument(
        "--io-scale",
        type=float,
        default=0.02,
        help="real seconds slept per simulated remote-latency second "
        "(default 0.02: a 0.4 s fetch blocks ~8 ms of wall clock)",
    )
    stress_parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject remote faults and enable the resilience layer "
        "(circuit breaker, negative cache, stale serving)",
    )
    stress_parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.3,
        help="total fault probability per fetch under --chaos, split 2/3 "
        "transient errors + 1/3 timeouts (default 0.3)",
    )
    stress_parser.add_argument(
        "--blackout",
        action="append",
        default=[],
        metavar="START:END",
        help="simulated-time window where every fetch fails (repeatable)",
    )
    stress_parser.add_argument(
        "--no-stale",
        action="store_true",
        help="disable stale serving under --chaos (degraded misses fail "
        "instead of answering from the last-known-good store)",
    )
    stress_parser.add_argument(
        "--chaos-workers",
        action="store_true",
        help="proc engine only: SIGKILL a shard worker mid-run and report "
        "how the supervisor and fault domains absorb it",
    )
    stress_parser.add_argument(
        "--kill-shard",
        type=int,
        default=0,
        help="shard whose worker --chaos-workers kills (default 0)",
    )
    stress_parser.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="N",
        help="request index at which --chaos-workers fires the kill "
        "(default: a third of the way through the run)",
    )
    stress_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-request stage spans as a Chrome trace_event JSON "
        "file (open in Perfetto or chrome://tracing)",
    )
    stress_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's counters/gauges/histograms as a Prometheus "
        "text exposition file",
    )
    stress_parser.add_argument(
        "--series-out",
        default=None,
        metavar="PATH",
        help="sample the metrics registry on an interval during the run and "
        "write the time-series as JSON",
    )
    stress_parser.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.1,
        help="seconds between --series-out samples (default 0.1)",
    )
    stress_parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="with --trace-out, record spans for 1-in-N requests instead of "
        "all of them (metrics stay exact; default 1 = trace everything)",
    )
    stress_parser.add_argument(
        "--profile",
        action="store_true",
        help="run the serving loop under cProfile and print the top 25 "
        "functions by cumulative time",
    )
    stress_parser.add_argument("--seed", type=int, default=0)
    _add_persist_arguments(stress_parser)
    _add_proc_arguments(stress_parser)
    serve_parser = commands.add_parser(
        "serve",
        help="run the multi-process serving tier behind a TCP front door",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="shard worker processes (default 4)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick an ephemeral port and print it)",
    )
    serve_parser.add_argument(
        "--io-scale",
        type=float,
        default=0.02,
        help="real seconds slept per simulated remote-latency second "
        "(default 0.02)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission-queue depth before overload rejection (default 256)",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in wall seconds (default none)",
    )
    serve_parser.add_argument(
        "--slo",
        action="store_true",
        help="evaluate the stock burn-rate SLOs live (snapshot recorder + "
        "SLO engine); the health op then reports burn rates and firings",
    )
    serve_parser.add_argument(
        "--slo-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sampling interval for the --slo snapshot recorder (default 1)",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    _add_persist_arguments(serve_parser)
    _add_proc_arguments(serve_parser)
    replicate_parser = commands.add_parser(
        "replicate",
        help="cross-region cache replication: local two-node simulation by "
        "default, or one real region with --listen / --peer",
    )
    replicate_parser.add_argument(
        "--listen",
        type=int,
        default=None,
        metavar="PORT",
        help="serve as one region: wait for the peer on PORT (0 = pick an "
        "ephemeral port and print it)",
    )
    replicate_parser.add_argument(
        "--peer",
        default=None,
        metavar="HOST:PORT",
        help="dial a --listen region and replicate against it",
    )
    replicate_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --listen"
    )
    replicate_parser.add_argument(
        "--node-id",
        default=None,
        help="region name in diffs and digests (default: A for --listen, "
        "B for --peer)",
    )
    replicate_parser.add_argument(
        "--sync-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between diff syncs (default 0.5)",
    )
    replicate_parser.add_argument(
        "--latency-ab",
        type=float,
        default=0.08,
        metavar="SECONDS",
        help="simulated one-way latency A->B in local-sim mode (default 0.08)",
    )
    replicate_parser.add_argument(
        "--latency-ba",
        type=float,
        default=0.12,
        metavar="SECONDS",
        help="simulated one-way latency B->A in local-sim mode (default 0.12)",
    )
    replicate_parser.add_argument(
        "--pace",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="wall seconds between local queries in socket mode "
        "(default 0.002)",
    )
    replicate_parser.add_argument(
        "--queries", type=int, default=600, help="requests per region (default 600)"
    )
    replicate_parser.add_argument(
        "--population",
        type=int,
        default=64,
        help="distinct facts in each region's workload (default 64; the "
        "overlap is what replication converges on)",
    )
    replicate_parser.add_argument(
        "--zipf-s", type=float, default=1.3, help="Zipf skew exponent (default 1.3)"
    )
    replicate_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: 0 for --listen/local node A, 1 for "
        "--peer/local node B, so the two regions draw different streams)",
    )
    slo_parser = commands.add_parser(
        "slo",
        help="evaluate burn-rate SLOs against a --series-out dump "
        "(exit 1 when firing)",
    )
    slo_parser.add_argument(
        "--series",
        required=True,
        metavar="PATH",
        help="snapshot series JSON written by a stress run's --series-out",
    )
    slo_parser.add_argument(
        "--engine",
        default="proc",
        help="engine label the series was recorded under (default proc)",
    )
    slo_parser.add_argument(
        "--p99-threshold",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="p99 latency SLO threshold (default 0.5 simulated seconds)",
    )
    slo_parser.add_argument(
        "--served-threshold",
        type=float,
        default=0.99,
        help="served-fraction SLO threshold (default 0.99)",
    )
    slo_parser.add_argument(
        "--stale-threshold",
        type=float,
        default=0.2,
        help="stale-fraction SLO threshold (default 0.2)",
    )
    slo_parser.add_argument(
        "--fast-window",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="fast burn-rate window (default 300; clamps to the series)",
    )
    slo_parser.add_argument(
        "--slow-window",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="slow burn-rate window (default 3600; clamps to the series)",
    )
    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "run":
        return _command_run(arguments.name, _parse_overrides(arguments.set))
    if arguments.command == "stress":
        return _command_stress(arguments)
    if arguments.command == "serve":
        return _command_serve(arguments)
    if arguments.command == "replicate":
        return _command_replicate(arguments)
    if arguments.command == "slo":
        return _command_slo(arguments)
    return _command_run_all(arguments.quick)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
