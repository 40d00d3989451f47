"""The engine: the data client + cache + remote-fallback orchestration (§3.3).

:class:`AsteriaEngine` is every system of the experiments' system axis:

* the full system — two-stage semantic lookup, admission on miss, LCFU
  eviction, optional Markov prefetching and threshold recalibration;
* Agent_ANN — ``config.match == "ann_only"``, the judger-less ablation;
* Agent_exact — ``config.match == "exact"``: Sine's exact stage only, LRU
  (``factory.build_exact_engine``);
* Agent_vanilla — ``config.cacheable_tools == ()``: every request takes
  the flow's bypass branch to the remote (``factory.build_vanilla_engine``).

So every system runs the one request flow (:mod:`repro.core.flow`), with
its retries, degradation, spans and accounting. Two execution styles
mirror :class:`~repro.network.remote.RemoteDataService`:

* ``handle(query, now)`` — analytic, returns a complete
  :class:`EngineResponse` with simulated latency;
* ``process(sim, query)`` — a generator for the discrete-event simulator,
  where queueing, rate limits, prefetch asynchrony, and GPU contention are
  real.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Generator, Protocol, runtime_checkable

from repro.core.admission import AdmissionPolicy, AlwaysAdmit
from repro.core.cache import AsteriaCache, content_key
from repro.core.config import AsteriaConfig
from repro.core.element import SemanticElement
from repro.core.flow import (
    Admit,
    Covered,
    EngineResponse,
    Fetch,
    Flight,
    Lookup,
    Sleep,
    Spawn,
    request_flow,
)
from repro.core.metrics import EngineMetrics
from repro.core.prefetch import MarkovPrefetcher
from repro.core.recalibration import ThresholdRecalibrator
from repro.core.resilience import ResilienceManager
from repro.core.types import CacheLookup, FetchResult, Query
from repro.network.remote import RemoteDataService

#: How many judged hits the recalibrator samples from (Algorithm 1 reads only
#: the recent past, so nothing older is kept).
EVAL_LOG_WINDOW = 200


@runtime_checkable
class KnowledgeEngine(Protocol):
    """The system axis of every experiment."""

    name: str
    metrics: EngineMetrics

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query analytically starting at ``now``."""
        ...

    def process(self, sim, query: Query) -> Generator:
        """Resolve one query as a simulated process (drive with yield from)."""
        ...


@runtime_checkable
class JudgeExecutor(Protocol):
    """Runs judger work somewhere (fixed latency, or a shared GPU)."""

    def run(self, sim, judged: int) -> Generator:
        """A generator that completes when ``judged`` validations are done."""
        ...


class _ConfigLatencyExecutor:
    """Default executor: judger latency straight from the config constants."""

    def __init__(self, config: AsteriaConfig) -> None:
        self._config = config

    def run(self, sim, judged: int) -> Generator:
        if judged > 0:
            yield sim.timeout(
                self._config.judge_latency_base
                + self._config.judge_latency_per_candidate * judged
            )
        return None


def _is_correct(served_truth: str | None, fact_id: str | None) -> bool:
    """Ground truth comparison; unknown annotations count as correct."""
    if served_truth is None or fact_id is None:
        return True
    return served_truth == fact_id


class AsteriaEngine:
    """The full Asteria system behind the data client.

    Parameters
    ----------
    cache:
        The semantic cache (owns Sine and the eviction policy).
    remote:
        The remote data service used on misses and for prefetching.
    config:
        Engine tunables; the cache's thresholds are driven from here
        (``config.tau_sim/tau_lsm`` overwrite the Sine values at
        construction so one object configures the whole engine).
    prefetcher:
        Optional Markov prefetcher; created automatically when
        ``config.prefetch_enabled``.
    recalibrator:
        Optional threshold recalibrator; created automatically when
        ``config.recalibration_enabled``.
    judge_executor:
        Where judger work runs in process mode (default: fixed-latency from
        config; the serving package provides a GPU-backed executor).
    admission:
        Which fetched results enter the cache (default
        :class:`~repro.core.admission.AlwaysAdmit`).
    resilience:
        Fault-tolerance state for the miss path (circuit breaker, negative
        cache, stale store, transient-fault retries). A default
        :class:`~repro.core.resilience.ResilienceManager` is built when
        omitted; share one instance across front-ends that talk to the same
        backend.
    """

    def __init__(
        self,
        cache: AsteriaCache,
        remote: RemoteDataService,
        config: AsteriaConfig | None = None,
        prefetcher: MarkovPrefetcher | None = None,
        recalibrator: ThresholdRecalibrator | None = None,
        judge_executor: JudgeExecutor | None = None,
        admission: AdmissionPolicy | None = None,
        resilience: ResilienceManager | None = None,
        name: str = "asteria",
    ) -> None:
        self.cache = cache
        self.remote = remote
        self.config = config if config is not None else AsteriaConfig()
        self.cache.sine.tau_sim = self.config.tau_sim
        self.cache.sine.tau_lsm = self.config.tau_lsm
        self.cache.sine.max_candidates = self.config.max_candidates
        if prefetcher is None and self.config.prefetch_enabled:
            prefetcher = MarkovPrefetcher(
                confidence=self.config.prefetch_confidence,
                max_per_event=self.config.prefetch_max_per_event,
            )
        self.prefetcher = prefetcher
        if recalibrator is None and self.config.recalibration_enabled:
            recalibrator = ThresholdRecalibrator(
                target_precision=self.config.target_precision,
                sample_size=self.config.recalibration_samples,
            )
        self.recalibrator = recalibrator
        self.judge_executor = judge_executor or _ConfigLatencyExecutor(self.config)
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.resilience = resilience if resilience is not None else ResilienceManager()
        #: Optional stage tracer (span trees; see :mod:`repro.obs.trace`).
        #: Attach via :meth:`set_tracer` so the cache and Sine stages are
        #: wired too; the default None costs one branch per stage.
        self.tracer = None
        self.name = name
        self.metrics = EngineMetrics()
        self._eval_log: deque[tuple[str, float, str | None, str | None]] = deque(
            maxlen=EVAL_LOG_WINDOW
        )
        self._last_recalibration = 0.0
        self._inflight_prefetch: set[str] = set()
        #: Semantic fingerprint -> pending fetch event (miss coalescing).
        self._inflight_fetches: dict = {}

    # -- observability ----------------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer to the engine and,
        when the cache supports it, to the cache and Sine stages."""
        self.tracer = tracer
        set_cache_tracer = getattr(self.cache, "set_tracer", None)
        if set_cache_tracer is not None:
            set_cache_tracer(tracer)

    # -- shared internals -------------------------------------------------------
    def _is_cacheable(self, query: Query) -> bool:
        tools = self.config.cacheable_tools
        return tools is None or query.tool in tools

    def _should_admit(self, query: Query, fetch: FetchResult, now: float) -> bool:
        return self.config.admit_on_miss and self.admission.admit(query, fetch, now)

    def _record_degraded(
        self, response: EngineResponse, query: Query, now: float = 0.0
    ) -> None:
        """Degraded outcomes bypass ``record_lookup`` entirely — like PR 3's
        ``overloaded``/``deadline_exceeded``, they never touch the hit/miss
        counters, accuracy, or the total-latency reservoir, so stats stay
        comparable across fault configurations."""
        self.metrics.degraded_latency.add(response.latency)

    def _sine_lookup(self, query: Query, now: float):
        """The cache lookup, matching on ``config.match``."""
        return self.cache.lookup(query, now, self.config.match)

    def _lookup_record(
        self, query: Query, sine_result
    ) -> tuple[CacheLookup, SemanticElement | None]:
        """Turn a SineResult into what ``Lookup`` sends back — the public
        lookup record and the matched element — plus an eval-log entry.

        Shared verbatim by every driver so latency attribution and accuracy
        accounting cannot drift between them.
        """
        judged = sine_result.judged
        check_latency = self.config.cache_check_latency(judged)
        element = sine_result.match
        hit = element is not None
        if hit:
            if sine_result.verdicts:
                accepted = sine_result.verdicts[-1]
                self._eval_log.append(
                    (query.text, accepted.score, element.truth_key, query.fact_id)
                )
            if element.prefetched and element.frequency == 1:
                self.metrics.prefetch_hits += 1
        lookup = CacheLookup(
            status="hit" if hit else "miss",
            result=element.value if hit else None,
            latency=check_latency,
            ann_latency=self.config.ann_latency,
            judge_latency=check_latency - self.config.ann_latency,
            candidates=len(sine_result.candidates),
            judged=judged,
            element_id=element.element_id if hit else None,
            truth_match=_is_correct(element.truth_key, query.fact_id) if hit else None,
        )
        return lookup, element

    def _record_response(
        self, response: EngineResponse, query: Query, now: float = 0.0
    ) -> None:
        self.metrics.record_response(response, query.fact_id)
        if response.lookup.status != "bypass":
            # Keep the eviction/expiration counters in sync with the cache.
            self.metrics.evictions = self.cache.stats.evictions
            self.metrics.expirations = self.cache.stats.expirations

    def _maybe_recalibrate(self, now: float) -> None:
        """One round of Algorithm 1 when ``recalibration_interval`` has
        passed: label a sample of recent judged hits, move ``tau_lsm`` to
        the smallest threshold meeting the target precision, and optionally
        fine-tune the judger. The request flow calls it first thing."""
        if now - self._last_recalibration < self.config.recalibration_interval:
            return
        self._last_recalibration = now
        labelled = self.recalibrator.ingest(self._eval_log)
        # Ground-truth fetches are real remote calls (Algorithm 1 line 4).
        for _ in range(labelled):
            self.remote.cost_meter.charge_api_call(
                self.remote.cost_per_call, tool="ground-truth"
            )
        sine = self.cache.sine
        sine.tau_lsm = self.recalibrator.recalibrate(sine.tau_lsm)
        if self.config.finetune_enabled:
            self.recalibrator.fine_tune(sine.judger)
        self.metrics.recalibrations += 1

    # -- analytic execution ----------------------------------------------------------
    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query analytically starting at simulated time ``now``.

        Never raises on remote failure: faults, exhausted retries, and an
        open breaker all degrade into an explicit ``stale_hit``/``failed``
        response instead of escaping the serve loop.
        """
        return self._run(request_flow(self, query, now), query, now)

    def _run(self, flow: Generator, query: Query | None = None, now: float = 0.0):
        """The analytic driver of :mod:`repro.core.flow`: every effect
        completes inline and costs only the simulated time the flow sums —
        a flight has nobody to share with, a spawned refresh or prefetch
        runs on the spot (there is no background to run it in) and backoff
        is not waited out. ``query``/``now`` serve the top-level request's
        ``Lookup``; sub-flows never look up."""
        result = None
        try:
            effect = flow.send(None)
            while True:
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        result = self._lookup_record(
                            query, self._sine_lookup(query, now)
                        )
                    elif kind is Fetch:
                        result = self.remote.fetch_at(effect.query, effect.at)
                    elif kind is Admit:
                        result = self.cache.insert(*effect)
                    elif kind is Covered:
                        result = self.cache.contains_semantic(effect.query)
                    elif kind is Flight:
                        result = self._run(effect.body), False
                    elif kind is Spawn:
                        result = self._run(effect.flow)
                    else:  # Sleep: the flow has already charged the backoff
                        result = None
                except Exception as exc:
                    effect = flow.throw(exc)
                else:
                    effect = flow.send(result)
        except StopIteration as stop:
            return stop.value

    # -- discrete-event execution --------------------------------------------------------
    def process(self, sim, query: Query) -> Generator:
        """Resolve one query on the simulator; returns an EngineResponse.

        The same flow as :meth:`handle`, with every wait spent on the
        simulator clock: queueing in the remote and on a shared judge
        executor is real, and backoff between retries is a ``sim.timeout``.
        """
        flow = request_flow(self, query, sim.now)
        return (yield from self._run_on(sim, flow, query))

    def _run_on(self, sim, flow: Generator, query: Query | None = None) -> Generator:
        """The DES driver of :mod:`repro.core.flow` (see :meth:`_run`)."""
        result = None
        try:
            effect = flow.send(None)
            while True:
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        began = sim.now
                        yield sim.timeout(self.config.ann_latency)
                        lookup, element = self._lookup_record(
                            query, self._sine_lookup(query, sim.now)
                        )
                        if lookup.judged > 0:
                            yield from self.judge_executor.run(sim, lookup.judged)
                        # Recompute the check latency from real elapsed time
                        # (the executor may have queued behind agent work on
                        # a shared GPU).
                        check = sim.now - began
                        result = dataclasses.replace(
                            lookup,
                            latency=check,
                            judge_latency=check - self.config.ann_latency,
                        ), element
                    elif kind is Fetch:
                        result = yield from self.remote.fetch(sim, effect.query)
                    elif kind is Sleep:
                        result = yield sim.timeout(effect.seconds)
                    elif kind is Admit:
                        result = self.cache.insert(
                            effect.query, effect.fetch, sim.now, effect.prefetched
                        )
                    elif kind is Covered:
                        result = self.cache.contains_semantic(effect.query)
                    elif kind is Flight:
                        result = yield from self._fly(sim, effect.key, effect.body)
                    else:  # Spawn
                        result = sim.process(
                            self._run_on(sim, effect.flow), name=effect.flow.__name__
                        )
                except Exception as exc:
                    effect = flow.throw(exc)
                else:
                    effect = flow.send(result)
        except StopIteration as stop:
            return stop.value

    def _fly(self, sim, key: tuple, body: Generator) -> Generator:
        """A flight with thundering-herd suppression when
        ``config.coalesce_misses`` is set: followers wait on the leader's
        in-flight event and reuse its result without a remote call."""
        if not self.config.coalesce_misses:
            return (yield from self._run_on(sim, body)), False
        # Tool + content fingerprint, so paraphrases share one flight.
        fingerprint = (key[0], content_key(key[1], empty=""))
        pending = self._inflight_fetches.get(fingerprint)
        if pending is not None:
            began = sim.now
            fetch, _ = yield pending
            # A follower joined late: it waited less than the leader did.
            return (fetch, sim.now - began), True
        event = sim.event()
        self._inflight_fetches[fingerprint] = event
        try:
            flown = yield from self._run_on(sim, body)
        except BaseException as exc:
            del self._inflight_fetches[fingerprint]
            event.defused = True
            event.fail(exc)
            raise
        del self._inflight_fetches[fingerprint]
        event.succeed(flown)
        return flown, False

    def __repr__(self) -> str:
        return (
            f"AsteriaEngine(name={self.name!r}, items={len(self.cache)}, "
            f"hit_rate={self.metrics.hit_rate:.3f})"
        )
