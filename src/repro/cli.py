"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig7 --set n_tasks=500
    python -m repro run table5
    python -m repro run-all --quick
    python -m repro stress --queries 2000
    python -m repro stress --rate 800 --max-inflight 64 --deadline 0.2
    python -m repro stress --engine proc --workers 4 --rate 800
    python -m repro stress --chaos --blackout 6:10
    python -m repro stress --trace-out trace.json --metrics-out metrics.prom
    python -m repro serve --workers 4 --port 7621
    python -m repro stress --connect 127.0.0.1:7621 --rate 400
    python -m repro stress --engine sync --persist /tmp/cache-home
    python -m repro replicate --queries 600
    python -m repro replicate --listen 7633   # region A
    python -m repro replicate --peer 127.0.0.1:7633   # region B
    python -m repro stress --engine proc --series-out series.json
    python -m repro slo --series series.json --engine proc
    python -m repro serve --workers 4 --slo

``--set key=value`` pairs are parsed with ``ast.literal_eval`` (falling back
to a plain string), so ints, floats, tuples, and booleans all work.

``run`` and ``run-all`` check each table against the paper's claims (every
experiment module's ``check``) and exit 1 when one is missed, naming it
after the table; an override that drops a row a claim reads misses that
claim. ``run-all --quick`` runs each experiment at its module's ``QUICK``
scale.

``stress`` exercises the real serving layers against a skewed synthetic
workload and prints wall-clock throughput — unlike the experiments, which
run on the virtual clock. ``--engine async`` (default) drives the asyncio
front-end with an *open-loop* fixed arrival rate, so backpressure
(``overloaded``) and deadlines (``deadline_exceeded``) are measured
honestly; ``--engine proc`` drives the multi-process shard-worker tier the
same open-loop way;
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
from typing import Callable, NamedTuple

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
from repro.experiments.harness import ExperimentResult


class Experiment(NamedTuple):
    """A registry entry: the runner, its description, the ``QUICK`` kwargs
    that shrink it and the ``check`` naming the claims a result misses."""

    run: Callable[..., ExperimentResult]
    description: str
    quick: dict
    check: Callable[[ExperimentResult], list[str]]


def _entry(module, description: str) -> Experiment:
    return Experiment(module.run, description, module.QUICK, module.check)


#: name -> experiment. Names follow the paper's artefacts.
EXPERIMENTS: dict[str, Experiment] = {
    "fig1c": _entry(fig1c_breakdown, "Search-R1 latency breakdown"),
    "fig2": _entry(fig2_zipf, "Zipfian search interest by window"),
    "fig3": _entry(fig3_bursts, "bursty, correlated query patterns"),
    "table2": _entry(table2_file_freq, "SWE-bench file access frequencies"),
    "fig7": _entry(fig7_skewed, "skewed search workloads vs cache ratio"),
    "fig8": _entry(fig8_trend, "trend-driven workload vs cache ratio"),
    "fig9": _entry(fig9_swebench, "SWE-bench workload vs cache ratio"),
    "fig10": _entry(fig10_concurrency, "throughput vs request concurrency"),
    "fig11": _entry(fig11_breakdown, "per-request latency breakdown"),
    "fig12": _entry(fig12_api_calls, "API calls and retry ratio"),
    "table4": _entry(table4_ratelimit, "throughput w/ and w/o rate limit"),
    "table5": _entry(table5_cost, "cost analysis across configurations"),
    "fig13": _entry(fig13_accuracy, "generation quality (Exact Match)"),
    "table6": _entry(table6_lcfu, "LCFU vs LRU/LFU eviction"),
    "table7": _entry(table7_colocation, "co-location efficiency"),
    "recalibration": _entry(recalibration_overhead, "recalibration overhead"),
    "drift": Experiment(
        recalibration_overhead.run_drift, "recalibration under drift",
        recalibration_overhead.DRIFT_QUICK, recalibration_overhead.check_drift,
    ),
    "tau-sweep": _entry(tau_sweep, "tau_sim x tau_lsm trade-off sweep"),
    "freshness": _entry(freshness_study, "TTL aging vs stale servings"),
    "fleet": _entry(tiered_fleet, "shared-L2 fleet scaling (extension)"),
    "admission": _entry(admission_study, "always-admit vs doorkeeper (extension)"),
    "judger-quality": _entry(judger_quality, "LSM error-rate sensitivity (extension)"),
    "coalescing": _entry(coalescing_study, "flash-crowd miss coalescing (extension)"),
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


def _command_list(arguments) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    print("Available experiments (python -m repro run <name>):\n")
    for name, experiment in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {experiment.description}")
    return 0


def _run_experiment(name: str, overrides: dict) -> list[str]:
    """Run one experiment, print its table and any claim it missed; return
    the missed claims."""
    experiment = EXPERIMENTS[name]
    result = experiment.run(**overrides)
    result.print_table()
    failed = experiment.check(result)
    for claim in failed:
        print(f"FAILED CLAIM [{name}]: {claim}")
    return failed


def _command_run(arguments) -> int:
    name = arguments.name
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: python -m repro list")
        return 2
    return 1 if _run_experiment(name, _parse_overrides(arguments.set)) else 0


def _stress_queries(count: int, seed: int, population: int) -> list:
    import numpy as np

    from repro.core import Query

    rng = np.random.default_rng(seed)
    # Zipf-skewed draws (s=1.3) over a fixed fact population: the repeats that
    # make caching (and single-flight) matter, with a long tail of cold misses.
    ranks = np.minimum(rng.zipf(1.3, size=count), population)
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
    byte-identical to the pre-fault-tolerance behaviour. A fetch faults with
    probability 0.3, split 2/3 transient errors + 1/3 timeouts.
    """
    if not arguments.chaos:
        return None, None
    from repro.core.resilience import CircuitBreaker, ResilienceManager
    from repro.network import FaultInjector

    fault_rate = 0.3
    injector = FaultInjector(
        error_rate=fault_rate * 2.0 / 3.0,
        timeout_rate=fault_rate / 3.0,
        blackouts=_parse_blackouts(arguments.blackout),
        seed=arguments.seed,
    )
    resilience = ResilienceManager(
        breaker=CircuitBreaker(window=16, min_samples=8, open_seconds=0.5),
        negative_ttl=0.3,
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
    ``series_interval`` is given, the series: a snapshot recorder probing
    the engine and the tick that fills it. Returns ``(registry, instrument,
    series)``, ``series`` a ``(recorder, tick)`` pair or None. Nothing
    samples until the serving loop runs ``tick`` on its own thread."""
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
    instrument.install_probes(recorder, engine.metrics, breaker=breaker)

    def tick() -> None:
        # Mirror first, so every row's registry series are as of its own time.
        _sync_instrument(instrument, engine)
        recorder.sample()

    return registry, instrument, (recorder, tick)


def _sync_instrument(instrument, engine) -> None:
    """Mirror the engine's metrics, occupancy and inflight depth into the
    registry."""
    instrument.sync(
        engine.metrics,
        cache=engine.cache,
        inflight=getattr(engine, "inflight", None),
    )


def _obs_setup(arguments, engine, label):
    """Build the observability rig requested by the stress flags.

    Returns ``(tracer, registry, instrument, series)``, with None for any
    piece not requested. The tracer is attached to ``engine`` immediately;
    the series is sampled by the load loop, on the thread that serves.
    """
    tracer = registry = instrument = series = None
    if arguments.trace_out:
        if getattr(arguments, "trace_sample", 1) > 1:
            from repro.obs import SamplingTracer

            tracer = SamplingTracer(sample_every=arguments.trace_sample)
        else:
            from repro.obs import Tracer

            tracer = Tracer()
        engine.set_tracer(tracer)
    if arguments.metrics_out or arguments.series_out:
        registry, instrument, series = _metrics_rig(
            engine,
            label,
            0.1 if arguments.series_out else None,
        )
    return tracer, registry, instrument, series


def _obs_finish(arguments, engine, tracer, registry, instrument, series) -> None:
    """Flush the observability artefacts and print where they landed."""
    if series is not None:
        recorder, tick = series
        tick()  # the final sample
        recorder.save_json(arguments.series_out)
        print(
            f"  series written to {arguments.series_out} "
            f"({len(recorder.times())} samples)"
        )
    if instrument is not None:
        _sync_instrument(instrument, engine)
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
        "persist_dir": arguments.persist,
        "fsync_every": arguments.fsync_every,
    }


def _build_sync(arguments, remote, resilience):
    from repro.factory import build_asteria_engine

    return build_asteria_engine(remote, resilience=resilience, **_stack_flags(arguments))


def _build_async(arguments, remote, resilience):
    from repro.factory import build_async_engine

    return build_async_engine(
        remote,
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
        proc_faults = ProcFaultInjector(kill_at=kill_at)
    return build_proc_engine(
        remote,
        workers=arguments.workers,
        io_pause_scale=arguments.io_scale,
        max_inflight=arguments.max_inflight,
        default_deadline=arguments.deadline,
        resilience=resilience,
        supervise=not arguments.no_supervise,
        proc_faults=proc_faults,
        **_stack_flags(arguments),
    )


def _drive_serial(arguments, engine, queries, series):
    """sync: one caller on this thread; SIGINT/SIGTERM set a
    ``threading.Event`` the loop polls, and the series ticks between
    requests once an interval has passed."""
    from repro.serving.load import run_serial

    between = None
    if series is not None:
        recorder, tick = series

        def between() -> None:
            if recorder.due():
                tick()

    stop, restore = _stop_on_signals()
    try:
        report = run_serial(
            engine, queries, time_step=0.01, stop=stop, between=between
        )
        return report, []
    finally:
        restore()


def _drive_loop(arguments, engine, queries, series):
    """async / proc: arrivals at ``--rate`` on an event loop, so
    backpressure and deadlines are measured honestly; the series ticks as
    one more task on that loop."""
    import asyncio

    from repro.obs import sample_on_loop
    from repro.serving.aio import run_open_loop

    pool = getattr(engine, "pool", None)
    faults = getattr(engine, "proc_faults", None)

    async def body(stop):
        sampler = series and asyncio.create_task(sample_on_loop(*series))
        try:
            return await run_open_loop(
                engine, queries, rate=arguments.rate, time_step=0.01, stop=stop
            )
        finally:
            if sampler:
                sampler.cancel()
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
            f"  chaos: worker_kills={faults.kills} "
            f"worker_restarts={engine.metrics.worker_restarts} "
            f"shard_down_fetches={engine.metrics.shard_down_fetches} "
            f"served_fraction={report.served_fraction:.4f}"
        )
        notes.append(f"  shard_breakers={[b.state for b in engine.shard_breakers]}")
    if pool is not None:
        inserts = [client.last_stats[0] for client in pool.clients]
        notes.append(f"  per-shard inserts={inserts} (total={sum(inserts)})")
    return report, notes


def _drive_socket(arguments, engine, queries, series):
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
    "async": (
        _build_async,
        _drive_loop,
        "rate={rate:.0f}/s max_inflight={max_inflight} ",
    ),
    "proc": (
        _build_proc,
        _drive_loop,
        "workers={workers} rate={rate:.0f}/s max_inflight={max_inflight} ",
    ),
    "socket": (lambda *_: None, _drive_socket, "target={connect} "),
}


def _command_stress(arguments) -> int:
    """Wall-clock stress of one serving tier: sequential baseline, asyncio
    or multi-process shard workers (open loop), or a socket client against a
    running ``serve`` process."""
    from repro.factory import build_remote

    tier = "socket" if arguments.connect else arguments.engine
    build, drive, shape = _STRESS_TIERS[tier]
    queries = _stress_queries(arguments.queries, arguments.seed, population=256)
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
            report, notes = drive(arguments, engine, queries, obs and obs[-1])
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
                f"remote_calls={report.remote_calls}"
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
    from repro.obs import sample_on_loop
    from repro.serving.proc.server import ProcServer

    engine = _build_proc(arguments, build_remote(seed=arguments.seed))
    _persist_banner(arguments, engine)
    slo_engine = series = None
    if arguments.slo:
        from repro.obs import SLOEngine, default_slos

        registry, _, series = _metrics_rig(engine, "proc", series_interval=1.0)
        slo_engine = SLOEngine(
            default_slos("proc"), recorder=series[0], registry=registry
        )
    server = ProcServer(
        engine,
        host=arguments.host,
        port=arguments.port,
        slo=slo_engine,
    )

    async def runner():
        await server.start()
        sampler = series and asyncio.create_task(sample_on_loop(*series))
        print(
            f"serving on {server.host}:{server.port} "
            f"workers={arguments.workers} "
            f"slo={'on' if slo_engine is not None else 'off'} "
            f"(SIGTERM/SIGINT drains and exits)",
            flush=True,
        )
        try:
            await server.run()
        finally:
            if sampler:
                sampler.cancel()

    asyncio.run(runner())
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
    specs = default_slos(engine=arguments.engine, p99_threshold=arguments.p99_threshold)
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


#: Distinct facts each region's workload draws from; the overlap is what
#: replication converges on.
_REGION_FACTS = 64


def _command_replicate(arguments) -> int:
    """Cross-region replication: a local two-node simulation by default, or
    one real region of a pair with ``--listen PORT`` / ``--peer HOST:PORT``.

    Either way each region runs one ``ReplicaSession``; the body prints one
    line per session and exits 0 only when every digest exchange scored
    full agreement."""
    from repro.factory import build_asteria_engine, build_remote
    from repro.store import replnet
    from repro.store.replication import ReplicaNode, ReplicationDriver

    if arguments.peer and arguments.listen is not None:
        raise SystemExit("--peer and --listen are mutually exclusive")
    seed = (1 if arguments.peer else 0) if arguments.seed is None else arguments.seed
    queries = _stress_queries(arguments.queries, seed, _REGION_FACTS)
    engine = build_asteria_engine(build_remote(seed=seed), seed=seed)
    node = ReplicaNode("B" if arguments.peer else "A", engine.cache)
    if arguments.peer is None and arguments.listen is None:
        # Region B: same engine seed, a different draw order over the facts.
        queries_b = _stress_queries(arguments.queries, seed + 1, _REGION_FACTS)
        engine_b = build_asteria_engine(build_remote(seed=seed), seed=seed)
        driver = ReplicationDriver(
            node, ReplicaNode("B", engine_b.cache), sync_interval=0.5
        )
        time_step = 0.01
        print(
            f"replicate (local sim): {arguments.queries} queries/region "
            f"sync_interval={driver.sync_interval}s "
            f"latency A->B={driver.link_ab.latency}s B->A={driver.link_ba.latency}s"
        )
        for i, (query_a, query_b) in enumerate(zip(queries, queries_b)):
            now = i * time_step
            engine.handle(query_a, now=now)
            engine_b.handle(query_b, now=now)
            driver.tick(now)
            if i and i % max(1, arguments.queries // 8) == 0:
                sample = driver.agreement()
                print(
                    f"  t={sample.t:7.2f}s agreement={sample.agreement:.3f} "
                    f"union={sample.union_keys} stale={sample.stale_keys} "
                    f"max_staleness={sample.max_staleness:.2f}s"
                )
        driver.drain(arguments.queries * time_step)
        reports = [session.report() for session in driver.sessions]
        print(
            f"  link A->B: frames={driver.link_ab.frames_sent} "
            f"bytes={driver.link_ab.bytes_sent}; "
            f"link B->A: frames={driver.link_ba.frames_sent} "
            f"bytes={driver.link_ba.bytes_sent}"
        )
    else:
        stop, restore = _stop_on_signals()
        try:
            if arguments.peer:
                sock = replnet.connect_peer(*_host_port(arguments.peer, "--peer"))
            else:
                server = replnet.open_listener(arguments.host, arguments.listen)
                print(
                    f"replica A listening on {arguments.host}:"
                    f"{server.getsockname()[1]} (waiting for --peer)",
                    flush=True,
                )
                sock = replnet.accept_peer(server, stop=stop)
                if sock is None:
                    print("no peer connected; exiting")
                    return 1
            workload = (
                (lambda now, query=query: engine.handle(query, now=now))
                for query in queries
            )
            reports = [
                replnet.replicate_session(
                    node, sock, workload=workload, stop=stop, pace=arguments.pace
                )
            ]
        finally:
            restore()
    for report in reports:
        stats = report["replication"]
        print(
            f"  node {report['node']} <-> {report['peer']}: items={report['items']} "
            f"frames out={report['frames_out']} in={report['frames_in']} "
            f"records out={stats['records_out']} in={stats['records_in']} "
            f"applied_upserts={stats['applied_upserts']} "
            f"invalidations={stats['applied_invalidations']} "
            f"lww_rejects={stats['lww_rejects']} "
            f"protocol_errors={report['protocol_errors']}"
        )
        if report["error"]:
            print(f"  refused: {report['error']}")
    scores = [report["agreement"] for report in reports]
    if None in scores:
        print("  final: no digest exchange (the peer left or a frame was refused)")
        return 1
    final = min(scores, key=lambda score: score["agreement"])
    print(
        f"  final: agreement={final['agreement']:.3f} "
        f"union={final['union_keys']} stale={final['stale_keys']}"
    )
    return 0 if final["agreement"] == 1.0 else 1


def _command_run_all(arguments) -> int:
    missed = [
        name
        for name, experiment in EXPERIMENTS.items()
        if _run_experiment(name, experiment.quick if arguments.quick else {})
    ]
    if missed:
        print(
            f"{len(missed)} of {len(EXPERIMENTS)} experiments missed a claim: "
            f"{', '.join(missed)}"
        )
        return 1
    print(f"all {len(EXPERIMENTS)} experiments held every claim")
    return 0


def _add_engine_arguments(parser) -> None:
    """Flags shared by the arms that build an engine (stress and serve)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="shard worker processes (default 4; stress: --engine proc)",
    )
    parser.add_argument(
        "--io-scale",
        type=float,
        default=0.02,
        help="real seconds slept per simulated remote-latency second "
        "(default 0.02: a 0.4 s fetch blocks ~8 ms of wall clock)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission-queue depth before overload rejection (default 256)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in wall seconds (default none)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--persist",
        default=None,
        metavar="DIR",
        help="durable cache home: warm-start from DIR's snapshot+journal "
        "and journal every mutation back to it (the proc tier uses one "
        "shard_NN subdirectory per worker)",
    )
    parser.add_argument(
        "--fsync-every",
        type=int,
        default=8,
        metavar="N",
        help="fsync the journal every N records (default 8; kill -9 loses "
        "at most the last unfsynced batch)",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable the worker supervisor (a dead shard worker stays "
        "dead; per-shard breakers still degrade its requests)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: one subparser per command, each carrying
    the handler ``main`` dispatches to."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    list_parser = commands.add_parser("list", help="list available experiments")
    list_parser.set_defaults(handler=_command_list)
    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.set_defaults(handler=_command_run)
    run_parser.add_argument("name", help="experiment name (see `list`)")
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a runner keyword argument (repeatable)",
    )
    all_parser = commands.add_parser("run-all", help="run every experiment")
    all_parser.set_defaults(handler=_command_run_all)
    all_parser.add_argument(
        "--quick", action="store_true", help="reduced-scale sweep"
    )
    stress_parser = commands.add_parser(
        "stress", help="wall-clock stress of the concurrent serving layer"
    )
    stress_parser.set_defaults(handler=_command_stress)
    stress_parser.add_argument(
        "--engine",
        choices=("sync", "async", "proc"),
        default="async",
        help="sync: sequential baseline; async (default): open-loop asyncio "
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
        "--rate",
        type=float,
        default=500.0,
        help="async open-loop arrival rate, requests/s (default 500)",
    )
    stress_parser.add_argument(
        "--queries", type=int, default=2000, help="requests to serve (default 2000)"
    )
    stress_parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject remote faults (30%% of fetches) and enable the "
        "resilience layer (circuit breaker, negative cache, stale serving)",
    )
    stress_parser.add_argument(
        "--blackout",
        action="append",
        default=[],
        metavar="START:END",
        help="simulated-time window where every fetch fails (repeatable)",
    )
    stress_parser.add_argument(
        "--chaos-workers",
        action="store_true",
        help="proc engine only: SIGKILL shard 0's worker mid-run and report "
        "how the supervisor and fault domains absorb it",
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
        help="sample the metrics registry every 0.1 s during the run and "
        "write the time-series as JSON",
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
    _add_engine_arguments(stress_parser)
    serve_parser = commands.add_parser(
        "serve",
        help="run the multi-process serving tier behind a TCP front door",
    )
    serve_parser.set_defaults(handler=_command_serve)
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
        "--slo",
        action="store_true",
        help="evaluate the stock burn-rate SLOs live (snapshot recorder "
        "sampling every second + SLO engine); the health op then reports "
        "burn rates and firings",
    )
    _add_engine_arguments(serve_parser)
    replicate_parser = commands.add_parser(
        "replicate",
        help="cross-region cache replication: local two-node simulation by "
        "default, or one real region with --listen / --peer",
    )
    replicate_parser.set_defaults(handler=_command_replicate)
    replicate_parser.add_argument(
        "--listen",
        type=int,
        default=None,
        metavar="PORT",
        help="serve as region A: wait for the peer on PORT (0 = pick an "
        "ephemeral port and print it)",
    )
    replicate_parser.add_argument(
        "--peer",
        default=None,
        metavar="HOST:PORT",
        help="dial a --listen region and replicate against it as region B",
    )
    replicate_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --listen"
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
    slo_parser.set_defaults(handler=_command_slo)
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
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
