"""One request flow, five drivers: conformance + the bare generator.

``repro.core.flow.request_flow`` is the only place the lifecycle
(cacheable? → lookup → hit | gate → flight → admit | degrade → record) is
written; ``AsteriaEngine.handle`` / ``.process``, ``ConcurrentEngine``,
``AsyncAsteriaEngine`` and ``ProcAsteriaEngine`` only interpret its effects.
The scenario table below runs every branch through every driver at one
shard / one worker (so all five see the same candidates) and pins:

* the same outcome sequence everywhere;
* the same integer counters of ``metrics.summary()`` everywhere;
* the same simulated latencies on the analytic, thread, asyncio and proc
  drivers (the DES driver measures latency on the simulator clock, which
  agrees only to rounding).

The last section drives the bare generator with scripted effect results —
no engine, cache, remote or clock at all.
"""

import asyncio
import contextlib
from dataclasses import dataclass, field

import pytest

from repro.core import AsteriaConfig, Query
from repro.core.flow import (
    LOOKUP,
    Admit,
    CacheUnavailable,
    Fetch,
    Flight,
    Sleep,
    Spawn,
    request_flow,
)
from repro.core.metrics import EngineMetrics
from repro.core.resilience import CircuitBreaker, ResilienceManager
from repro.core.types import CacheLookup, FetchResult
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_concurrent_engine,
    build_proc_engine,
    build_remote,
)
from repro.network import FaultInjector
from repro.network.faults import RemoteUnavailable
from repro.sim import Simulator

SEED = 0
MONA = Query("who painted the mona lisa", fact_id="F")
FILE = Query("write to scratchpad", fact_id="S", tool="file")
LOG = Query("append to the audit log", fact_id="L", tool="file")


def other(i: int) -> Query:
    return Query(f"unrelated subject number {i} entirely", fact_id=f"G{i}")


@dataclass
class Scenario:
    """Steps are ``(now, query)``, or ``(now, [queries])`` issued together."""

    name: str
    steps: list
    outcomes: list[str]
    counters: dict[str, int]
    blackout: tuple[float, float] | None = None
    config: dict = field(default_factory=dict)
    breaker: dict | None = None
    #: Simulated latency of the last step, where the scenario pins one.
    last_latency: float | None = None

    @property
    def concurrent(self) -> bool:
        return any(isinstance(step[1], list) for step in self.steps)


SCENARIOS = [
    Scenario(
        "hit and miss-admit",
        steps=[(0.0, MONA), (1.0, MONA)],
        outcomes=["miss", "hit"],
        counters={"requests": 2, "hits": 1, "misses": 1},
    ),
    Scenario(
        "uncacheable bypass",
        steps=[(0.0, FILE), (1.0, FILE)],
        outcomes=["bypass", "bypass"],
        counters={"requests": 2, "hits": 0, "misses": 0},
        config={"cacheable_tools": ("search",)},
    ),
    Scenario(
        "bypass failure",
        steps=[(0.0, FILE), (5.0, FILE), (6.0, LOG)],
        # A banked bypass result is served stale; a fresh key just fails —
        # and neither retries (one fault each, not a budget of three).
        outcomes=["bypass", "stale_hit", "failed"],
        counters={"stale_hits": 1, "failed_requests": 1, "fetch_failures": 2},
        blackout=(4.0, 100.0),
        config={"cacheable_tools": ("search",)},
    ),
    Scenario(
        "transient fault retried then served",
        steps=[(1.0, MONA)],
        outcomes=["miss"],
        counters={"misses": 1, "fetch_failures": 0, "failed_requests": 0},
        blackout=(1.0, 1.08),
        # 0.02 check + 0.05 failed attempt + 0.05 backoff + the 0.4 fetch.
        last_latency=0.52,
    ),
    Scenario(
        "retries exhausted then stale hit",
        steps=[(0.0, MONA), (5.0, MONA)],
        outcomes=["miss", "stale_hit"],
        counters={"stale_hits": 1, "fetch_failures": 1, "background_refreshes": 0},
        blackout=(4.0, 100.0),
        config={"default_ttl": 1.0},
        # 0.02 check + 3 failed attempts + backoffs 0.05 and 0.1.
        last_latency=0.32,
    ),
    Scenario(
        "retries exhausted then failed",
        steps=[(5.0, MONA)],
        outcomes=["failed"],
        counters={"requests": 0, "failed_requests": 1, "fetch_failures": 1},
        blackout=(4.0, 100.0),
    ),
    Scenario(
        "negative-cached key revalidates once",
        steps=[(0.0, MONA), (5.0, MONA), (6.0, MONA), (6.5, MONA)],
        outcomes=["miss", "stale_hit", "stale_hit", "hit"],
        counters={
            "negative_cache_hits": 1,
            "background_refreshes": 1,
            "stale_hits": 2,
            "fetch_failures": 1,
        },
        blackout=(4.9, 5.5),
        config={"default_ttl": 1.0},
    ),
    Scenario(
        # An open breaker refuses the flight *and* the revalidation probe, so
        # a stale serve behind it schedules nothing (the one refresh a stale
        # serve can schedule is the negative-cache case above).
        "breaker open then stale hit",
        steps=[(0.0, MONA), (5.0, other(1)), (5.5, other(2)), (6.0, MONA)],
        outcomes=["miss", "failed", "failed", "stale_hit"],
        counters={
            "breaker_open_rejects": 1,
            "stale_hits": 1,
            "fetch_failures": 2,
            "background_refreshes": 0,
        },
        blackout=(4.0, 100.0),
        config={"default_ttl": 1.0},
        breaker={
            "failure_threshold": 0.5,
            "window": 4,
            "min_samples": 3,
            "open_seconds": 30.0,
        },
    ),
    Scenario(
        # Two callers, one failed flight: where the driver can overlap them
        # the follower gets the leader's exception, where it cannot the
        # second caller finds the key negative-cached — either way the
        # flight is accounted once and the backend saw one retry budget.
        "coalesced follower of a failed leader",
        steps=[(5.0, [MONA, MONA])],
        outcomes=["failed", "failed"],
        counters={"fetch_failures": 1, "failed_requests": 2},
        blackout=(4.0, 100.0),
        config={"coalesce_misses": True},
    ),
]


# -- drivers ---------------------------------------------------------------------
def _parts(scenario: Scenario):
    injector = None
    if scenario.blackout is not None:
        injector = FaultInjector(blackouts=[scenario.blackout], seed=SEED)
    remote = build_remote(latency=0.4, seed=SEED, fault_injector=injector)
    breaker = CircuitBreaker(**scenario.breaker) if scenario.breaker else None
    resilience = ResilienceManager(breaker=breaker, seed=SEED)
    return remote, AsteriaConfig(**scenario.config), resilience


def _label(response) -> str:
    return response.degraded or response.lookup.status


def _group(step) -> tuple[float, list[Query]]:
    now, queries = step
    return now, queries if isinstance(queries, list) else [queries]


def drive_analytic(scenario: Scenario):
    remote, config, resilience = _parts(scenario)
    engine = build_asteria_engine(remote, config, seed=SEED, resilience=resilience)
    responses = []
    for now, queries in map(_group, scenario.steps):
        responses += [engine.handle(query, now) for query in queries]
    return engine, responses


def drive_des(scenario: Scenario):
    remote, config, resilience = _parts(scenario)
    engine = build_asteria_engine(remote, config, seed=SEED, resilience=resilience)
    sim = Simulator()
    responses = []
    for now, queries in map(_group, scenario.steps):
        sim.run(until=now)
        processes = [sim.process(engine.process(sim, query)) for query in queries]
        sim.run()  # background refreshes land before the next step
        responses += [process.value for process in processes]
    return engine, responses


def drive_thread(scenario: Scenario):
    remote, config, resilience = _parts(scenario)
    engine = build_concurrent_engine(
        remote,
        config,
        seed=SEED,
        shards=1,
        workers=2 if scenario.concurrent else 1,
        resilience=resilience,
    )
    responses = []
    for now, queries in map(_group, scenario.steps):
        responses += engine.handle_concurrent(queries, now)
        engine.close()  # joins the pool: spawned refreshes have landed
    return engine, responses


def _drive_loop(engine, scenario: Scenario, context):
    async def drive():
        outcomes = []
        async with context:
            for now, queries in map(_group, scenario.steps):
                outcomes += await asyncio.gather(
                    *(engine.serve(query, now) for query in queries)
                )
                await engine.drain()
        return outcomes

    return engine, asyncio.run(drive())


def drive_async(scenario: Scenario):
    remote, config, resilience = _parts(scenario)
    engine = build_async_engine(
        remote, config, seed=SEED, shards=1, resilience=resilience
    )
    return _drive_loop(engine, scenario, contextlib.nullcontext())


def drive_proc(scenario: Scenario):
    remote, config, resilience = _parts(scenario)
    engine = build_proc_engine(
        remote, config, seed=SEED, workers=1, resilience=resilience
    )
    return _drive_loop(engine, scenario, engine)


def _outcome_label(outcome) -> str:
    """An ``AsyncOutcome`` in the vocabulary of ``EngineResponse``."""
    if outcome.response is None:
        return outcome.status  # "failed"
    return _label(outcome.response)


def _latency(item) -> float | None:
    response = getattr(item, "response", item)
    return None if response is None else response.latency


def _counters(engine) -> dict[str, int]:
    return {
        name: value
        for name, value in engine.metrics.summary().items()
        if isinstance(value, int)
    }


# -- conformance -----------------------------------------------------------------
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_every_driver_resolves_the_scenario_identically(scenario):
    reference, ref_responses = drive_analytic(scenario)
    assert [_label(r) for r in ref_responses] == scenario.outcomes
    for name, value in scenario.counters.items():
        assert getattr(reference.metrics, name) == value, name
    if scenario.last_latency is not None:
        assert ref_responses[-1].latency == pytest.approx(scenario.last_latency)

    runs = {
        "des": drive_des(scenario),
        "thread": drive_thread(scenario),
        "async": drive_async(scenario),
        "proc": drive_proc(scenario),
    }
    for driver, (engine, results) in runs.items():
        labels = [
            _outcome_label(r) if driver in ("async", "proc") else _label(r)
            for r in results
        ]
        assert labels == scenario.outcomes, driver
        for name, value in scenario.counters.items():
            assert getattr(engine.metrics, name) == value, (driver, name)
        if scenario.concurrent:
            # Whether the callers overlapped is the driver's business; only
            # the pinned counters are common ground.
            continue
        assert _counters(engine) == _counters(reference), driver
        if driver == "des":
            for got, want in zip(results, ref_responses):
                assert got.latency == pytest.approx(want.latency, abs=1e-9)
            continue
        for got, want in zip(results, ref_responses):
            if _latency(got) is not None:  # a failed AsyncOutcome has none
                assert _latency(got) == want.latency, driver
        for reservoir in ("total_latency", "miss_latency", "degraded_latency"):
            assert (
                getattr(engine.metrics, reservoir).total
                == getattr(reference.metrics, reservoir).total
            ), (driver, reservoir)


def test_blackout_scenarios_spend_one_retry_budget_per_flight():
    """3 attempts per failed miss flight, 1 per failed bypass — in every
    driver, including the DES one (which waits its backoff on the
    simulator clock)."""
    scenario = next(s for s in SCENARIOS if s.name == "bypass failure")
    for drive in (drive_analytic, drive_des, drive_thread, drive_async):
        engine, _ = drive(scenario)
        sync = getattr(engine, "engine", engine)
        assert sync.remote.fault_injector.total_faults == 2, drive.__name__
    scenario = next(s for s in SCENARIOS if s.name.startswith("coalesced"))
    for drive in (drive_analytic, drive_des, drive_thread, drive_async):
        engine, _ = drive(scenario)
        sync = getattr(engine, "engine", engine)
        assert sync.remote.fault_injector.total_faults == 3, drive.__name__


# -- the bare generator ----------------------------------------------------------
class _Host:
    """Everything the flow asks of its host, with nothing behind it."""

    tracer = None

    def __init__(self) -> None:
        self.resilience = ResilienceManager()
        self.metrics = EngineMetrics()
        self.recorded: list[tuple[str, float]] = []

    def _is_cacheable(self, query) -> bool:
        return query.tool == "search"

    def _should_admit(self, query, fetch, now) -> bool:
        return True

    def _record_response(self, response, query, now) -> None:
        self.recorded.append((response.lookup.status, response.latency))

    def _record_degraded(self, response, query, now) -> None:
        self.recorded.append((response.degraded, response.latency))


def _fetched(latency: float = 0.4) -> FetchResult:
    return FetchResult(
        result="answer", latency=latency, service_latency=latency, cost=0.005
    )


def _miss(latency: float = 0.02) -> CacheLookup:
    return CacheLookup(status="miss", result=None, latency=latency)


def _finish(flow, send=None):
    with pytest.raises(StopIteration) as stop:
        flow.send(send)
    return stop.value.value


class TestBareGenerator:
    def test_hit_is_one_effect(self):
        host = _Host()
        flow = request_flow(host, MONA, 1.0)
        assert flow.send(None) is LOOKUP
        hit = CacheLookup(status="hit", result="cached", latency=0.05, truth_match=True)
        response = _finish(flow, hit)
        assert (response.result, response.latency, response.degraded) == (
            "cached",
            0.05,
            None,
        )
        assert host.recorded == [("hit", 0.05)]

    def test_miss_retries_sleeps_admits_and_charges_the_overhead(self):
        host = _Host()
        flow = request_flow(host, MONA, 1.0)
        assert flow.send(None) is LOOKUP
        flight = flow.send(_miss())
        assert isinstance(flight, Flight)
        assert flight.key == ("search", "who painted the mona lisa")

        # The driver runs the flight body: fetch → fault → backoff → fetch.
        body = flight.body
        assert body.send(None) == Fetch(MONA, 1.02)
        backoff = body.throw(RemoteUnavailable("flaky", latency=0.1))
        assert backoff == Sleep(0.05)
        assert body.send(None) == Fetch(MONA, pytest.approx(1.17))
        admit = body.send(_fetched(0.4))
        assert isinstance(admit, Admit)
        assert admit.at == pytest.approx(1.57)
        fetch, elapsed = _finish(body)
        assert elapsed == pytest.approx(0.55)

        response = _finish(flow, ((fetch, elapsed), False))
        assert response.latency == pytest.approx(0.02 + 0.1 + 0.05 + 0.4)
        assert response.fetch is fetch
        assert host.recorded == [("miss", response.latency)]
        assert host.metrics.coalesced_misses == 0
        assert len(host.resilience.stale) == 1  # success banked

    def test_shared_flight_counts_a_coalesced_miss(self):
        host = _Host()
        flow = request_flow(host, MONA, 0.0)
        flow.send(None)
        flow.send(_miss())
        _finish(flow, ((_fetched(), 0.4), True))
        assert host.metrics.coalesced_misses == 1

    def test_failed_flight_degrades_and_is_accounted_once(self):
        host = _Host()
        failure = RemoteUnavailable("down", latency=0.3)
        flows = [request_flow(host, MONA, 0.0) for _ in range(2)]
        for flow in flows:  # leader and follower are both in flight
            flow.send(None)
            assert isinstance(flow.send(_miss()), Flight)
        for flow in flows:  # and both see the leader's exception object
            with pytest.raises(StopIteration) as stop:
                flow.throw(failure)
            assert stop.value.value.degraded == "failed"
            assert stop.value.value.latency == pytest.approx(0.32)
        assert host.metrics.fetch_failures == 1
        assert host.metrics.failed_requests == 2

    def test_refused_flight_serves_stale_and_spawns_one_refresh(self):
        host = _Host()
        key = ("search", "who painted the mona lisa")
        host.resilience.on_success(key, _fetched(), 0.0)
        host.resilience.on_failure(key, 1.0)  # negative-cached until 6.0
        flow = request_flow(host, MONA, 2.0)
        flow.send(None)
        spawn = flow.send(_miss())
        assert isinstance(spawn, Spawn)
        response = _finish(flow)
        assert response.degraded == "stale_hit" and response.result == "answer"
        assert host.metrics.negative_cache_hits == 1
        assert host.metrics.background_refreshes == 1
        # The spawned flow is one more flight for the same key.
        refresh = spawn.flow.send(None)
        assert isinstance(refresh, Flight) and refresh.key == key

    def test_bypass_fetches_directly_without_retry(self):
        host = _Host()
        flow = request_flow(host, FILE, 3.0)
        assert flow.send(None) == Fetch(FILE, 3.0)
        with pytest.raises(StopIteration) as stop:
            flow.throw(RemoteUnavailable("down", latency=0.1))
        assert stop.value.value.degraded == "failed"
        assert stop.value.value.lookup.status == "bypass"

    def test_unavailable_cache_serves_stale_else_fetches_uncached(self):
        host = _Host()
        flow = request_flow(host, MONA, 0.0)
        flow.send(None)
        flight = flow.throw(CacheUnavailable())
        assert isinstance(flight, Flight)
        assert host.metrics.shard_down_fetches == 1
        # Nothing is admitted while the cache is down.
        body = flight.body
        body.send(None)
        fetch, elapsed = _finish(body, _fetched())
        response = _finish(flow, ((fetch, elapsed), False))
        assert response.lookup.status == "bypass" and response.degraded is None

        # Now a result is banked: the same request is served stale at once.
        flow = request_flow(host, MONA, 1.0)
        flow.send(None)
        with pytest.raises(StopIteration) as stop:
            flow.throw(CacheUnavailable())
        assert stop.value.value.degraded == "stale_hit"
        assert host.metrics.shard_down_fetches == 1
