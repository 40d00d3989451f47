"""Engines: the data client + cache + remote-fallback orchestration (§3.3).

Three engines implement one interface (the experiments' system axis):

``AsteriaEngine``
    The full system: two-stage semantic lookup, admission on miss, LCFU
    eviction, optional Markov prefetching and threshold recalibration. With
    ``config.ann_only`` it degrades into the paper's Agent_ANN ablation.
``ExactEngine``
    Agent_exact — a traditional exact-match KV cache at the tool boundary.
``VanillaEngine``
    Agent_vanilla — no cache; every request goes to the remote service.

Each engine supports two execution styles, mirroring
:class:`~repro.network.remote.RemoteDataService`:

* ``handle(query, now)`` — analytic, returns a complete
  :class:`EngineResponse` with simulated latency;
* ``process(sim, query)`` — a generator for the discrete-event simulator,
  where queueing, rate limits, prefetch asynchrony, and GPU contention are
  real.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Generator, Protocol, Sequence, runtime_checkable

from repro.core.admission import AdmissionPolicy, AlwaysAdmit
from repro.core.cache import AsteriaCache, ExactCache
from repro.core.config import AsteriaConfig
from repro.core.flow import (
    Admit,
    EngineResponse,
    Fetch,
    Flight,
    Lookup,
    Sleep,
    Spawn,
    account_failure,
    request_flow,
    resilience_key,
)
from repro.core.metrics import EngineMetrics
from repro.core.prefetch import MarkovPrefetcher
from repro.core.recalibration import ThresholdRecalibrator
from repro.core.resilience import ResilienceManager
from repro.core.types import CacheLookup, FetchResult, Query
from repro.embedding.tokenizer import SimpleTokenizer
from repro.network.remote import RemoteDataService, RemoteFetchError

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
        self._fingerprint_tokenizer = SimpleTokenizer()

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

    def _sine_lookup(self, query: Query, now: float, prepared=None):
        """Stage 1+2 retrieval. ``prepared`` is a batch's ``(stage-1 hits,
        mutation stamp)`` for this query; once the cache has mutated since
        the stamp (an earlier item in the batch admitted, evicted or
        expired something) the snapshot is stale and a fresh scalar lookup
        runs instead, keeping batched results exact."""
        if prepared is not None and self._mutation_stamp() == prepared[1]:
            return self.cache.lookup_prepared(
                query, prepared[0], now, ann_only=self.config.ann_only
            )
        return self.cache.lookup(query, now, ann_only=self.config.ann_only)

    def _lookup_record(self, query: Query, sine_result) -> tuple[CacheLookup, object]:
        """Turn a SineResult into the public lookup record + eval-log entry.

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
        self.metrics.record_response(response)
        if response.lookup.status != "bypass":
            # Keep the eviction/expiration counters in sync with the cache.
            self.metrics.evictions = self.cache.stats.evictions
            self.metrics.expirations = self.cache.stats.expirations

    def _maybe_recalibrate(self, now: float) -> None:
        if self.recalibrator is None:
            return
        if now - self._last_recalibration < self.config.recalibration_interval:
            return
        self._last_recalibration = now
        labelled = self.recalibrator.ingest(self._eval_log)
        if labelled:
            # Ground-truth fetches are real remote calls (Algorithm 1 line 4).
            for _ in range(labelled):
                self.remote.cost_meter.charge_api_call(
                    self.remote.cost_per_call, tool="ground-truth"
                )
        new_threshold = self.recalibrator.recalibrate(self.cache.sine.tau_lsm)
        if new_threshold != self.cache.sine.tau_lsm:
            self.cache.sine.tau_lsm = new_threshold
        if self.config.finetune_enabled:
            self.recalibrator.fine_tune(self.cache.sine.judger)
        self.metrics.recalibrations += 1

    # -- analytic execution ----------------------------------------------------------
    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query analytically starting at simulated time ``now``.

        Never raises on remote failure: faults, exhausted retries, and an
        open breaker all degrade into an explicit ``stale_hit``/``failed``
        response instead of escaping the serve loop.
        """
        self._maybe_recalibrate(now)
        return self._run(request_flow(self, query, now), query, now)

    def _run(
        self,
        flow: Generator,
        query: Query | None = None,
        now: float = 0.0,
        prepared=None,
    ):
        """The analytic driver of :mod:`repro.core.flow`: every effect
        completes inline and costs only the simulated time the flow sums —
        a flight has nobody to share with, a spawned refresh runs on the
        spot (there is no background to run it in) and backoff is not
        waited out. ``query``/``now``/``prepared`` serve the top-level
        request's ``Lookup``; sub-flows never look up."""
        element = result = None
        looked_up = False
        try:
            effect = flow.send(None)
            while True:
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        looked_up = True
                        result, element = self._lookup_record(
                            query, self._sine_lookup(query, now, prepared)
                        )
                    elif kind is Fetch:
                        result = self.remote.fetch_at(effect.query, effect.at)
                    elif kind is Admit:
                        result = self.cache.insert(*effect)
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
            response = stop.value
        if looked_up and self.prefetcher is not None and response.degraded is None:
            canonical = element.key if element is not None else query.text
            self._run_prefetch_analytic(query, now, canonical)
        return response

    def handle_batch(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve many queries at one simulated time with shared stage-1 work.

        The batch runs one ``embed_batch`` and one ANN ``search_batch`` over
        the cacheable queries, then completes each query *in input order*
        through exactly the scalar flow (judging, admission, metrics,
        prefetch), so responses and metric deltas equal N :meth:`handle`
        calls at the same ``now``.

        If the cache mutates mid-batch (a miss admits an element, a prefetch
        lands, an eviction or expiry runs), the ANN snapshot may be stale for
        the remaining queries; those fall back to the scalar lookup, keeping
        results exact. Hit-heavy batches — the steady state the paper's
        latency argument rests on — keep the fully shared fast path.
        """
        responses: list[EngineResponse] = []
        for query, prepared in zip(queries, self._prepare_batch(queries, now)):
            self._maybe_recalibrate(now)
            flow = request_flow(self, query, now, batched=True)
            responses.append(self._run(flow, query, now, prepared))
        return responses

    def _prepare_batch(self, queries: Sequence[Query], now: float) -> list:
        """The shared stage-1 pass of a batch: expiry purge, one embed-batch +
        ANN search-batch over the cacheable queries, and the mutation stamp,
        as one snapshot. Returns each query's ``(stage-1 hits, stamp)`` for
        :meth:`_sine_lookup` — None for an uncacheable query."""
        cacheable = [self._is_cacheable(query) for query in queries]
        texts = [query.text for query, wanted in zip(queries, cacheable) if wanted]
        if not texts:
            return [None] * len(cacheable)
        self.cache.remove_expired(now)
        # The cache owns the stage-1 batching (a sharded cache groups the
        # texts so each shard still gets one embed+ANN pass).
        rows = iter(self.cache.prepare_batch(texts))
        stamp = self._mutation_stamp()
        return [(next(rows), stamp) if wanted else None for wanted in cacheable]

    def _mutation_stamp(self) -> tuple[int, int, int]:
        """Cache-population fingerprint for batch snapshot invalidation."""
        stats = self.cache.stats
        return (stats.inserts, stats.evictions, stats.expirations)

    def _run_prefetch_analytic(
        self, query: Query, now: float, canonical: str
    ) -> None:
        for signature in self.prefetcher.observe(query, canonical):
            target = signature.to_query()
            if self.cache.contains_semantic(target):
                continue
            try:
                fetch = self.remote.fetch_at(target, now)
            except RemoteFetchError as exc:
                # Prefetches are speculative: a failed one is dropped, but
                # the breaker still learns about the backend.
                account_failure(
                    self, resilience_key(target), exc, now + exc.latency
                )
                continue
            self.cache.insert(
                target, fetch, now + fetch.latency, prefetched=True
            )
            self.metrics.prefetches_issued += 1

    # -- discrete-event execution --------------------------------------------------------
    def process(self, sim, query: Query) -> Generator:
        """Resolve one query on the simulator; returns an EngineResponse.

        The same flow as :meth:`handle`, with every wait spent on the
        simulator clock: queueing in the remote and on a shared judge
        executor is real, and backoff between retries is a ``sim.timeout``.
        """
        self._maybe_recalibrate(sim.now)
        flow = request_flow(self, query, sim.now)
        return (yield from self._run_on(sim, flow, query))

    def _run_on(self, sim, flow: Generator, query: Query | None = None) -> Generator:
        """The DES driver of :mod:`repro.core.flow` (see :meth:`_run`)."""
        element = result = None
        looked_up = False
        try:
            effect = flow.send(None)
            while True:
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        looked_up = True
                        began = sim.now
                        yield sim.timeout(self.config.ann_latency)
                        lookup, element = self._lookup_record(
                            query, self._sine_lookup(query, sim.now)
                        )
                        if lookup.judged > 0 and not self.config.ann_only:
                            yield from self.judge_executor.run(sim, lookup.judged)
                        # Recompute the check latency from real elapsed time
                        # (the executor may have queued behind agent work on
                        # a shared GPU).
                        check = sim.now - began
                        result = dataclasses.replace(
                            lookup,
                            latency=check,
                            judge_latency=check - self.config.ann_latency,
                        )
                    elif kind is Fetch:
                        result = yield from self.remote.fetch(sim, effect.query)
                    elif kind is Sleep:
                        result = yield sim.timeout(effect.seconds)
                    elif kind is Admit:
                        result = self.cache.insert(
                            effect.query, effect.fetch, sim.now
                        )
                    elif kind is Flight:
                        result = yield from self._fly(sim, effect.key, effect.body)
                    else:  # Spawn
                        result = sim.process(
                            self._run_on(sim, effect.flow), name="stale-refresh"
                        )
                except Exception as exc:
                    effect = flow.throw(exc)
                else:
                    effect = flow.send(result)
        except StopIteration as stop:
            response = stop.value
        if looked_up and self.prefetcher is not None and response.degraded is None:
            canonical = element.key if element is not None else query.text
            self._spawn_prefetches(sim, query, canonical)
        return response

    def _fingerprint(self, key: tuple):
        """Semantic identity proxy for coalescing (tool + content stems of
        the flight key's text), so paraphrases share one flight."""
        return (
            key[0],
            frozenset(self._fingerprint_tokenizer.content_tokens(key[1])),
        )

    def _fly(self, sim, key: tuple, body: Generator) -> Generator:
        """A flight with thundering-herd suppression when
        ``config.coalesce_misses`` is set: followers wait on the leader's
        in-flight event and reuse its result without a remote call."""
        if not self.config.coalesce_misses:
            return (yield from self._run_on(sim, body)), False
        fingerprint = self._fingerprint(key)
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

    def _spawn_prefetches(self, sim, query: Query, canonical: str) -> None:
        for signature in self.prefetcher.observe(query, canonical):
            if signature.text in self._inflight_prefetch:
                continue
            target = signature.to_query()
            if self.cache.contains_semantic(target):
                continue
            self._inflight_prefetch.add(signature.text)
            sim.process(self._prefetch_process(sim, target), name="prefetch")
            self.metrics.prefetches_issued += 1

    def _prefetch_process(self, sim, target: Query) -> Generator:
        try:
            fetch = yield from self.remote.fetch(sim, target)
            # The world may have cached it meanwhile; keep the fresher copy out.
            if not self.cache.contains_semantic(target):
                self.cache.insert(target, fetch, sim.now, prefetched=True)
        except RemoteFetchError as exc:
            # Speculative flight: drop it, but feed the breaker.
            account_failure(self, resilience_key(target), exc, sim.now)
        finally:
            self._inflight_prefetch.discard(target.text)

    def __repr__(self) -> str:
        return (
            f"AsteriaEngine(name={self.name!r}, items={len(self.cache)}, "
            f"hit_rate={self.metrics.hit_rate:.3f})"
        )


class ExactEngine:
    """Agent_exact: a traditional exact-match cache at the tool boundary.

    ``lookup_latency`` models the (tiny) local KV lookup cost.
    """

    def __init__(
        self,
        cache: ExactCache,
        remote: RemoteDataService,
        lookup_latency: float = 0.002,
        name: str = "exact",
    ) -> None:
        if lookup_latency < 0:
            raise ValueError("lookup_latency must be >= 0")
        self.cache = cache
        self.remote = remote
        self.lookup_latency = lookup_latency
        self.name = name
        self.metrics = EngineMetrics()

    def _lookup(self, query: Query, now: float) -> CacheLookup:
        element = self.cache.lookup(query, now)
        if element is not None:
            return CacheLookup(
                status="hit",
                result=element.value,
                latency=self.lookup_latency,
                element_id=element.element_id,
                truth_match=_is_correct(element.truth_key, query.fact_id),
            )
        return CacheLookup(status="miss", result=None, latency=self.lookup_latency)

    def _respond(
        self, lookup: CacheLookup, latency: float, fetch: FetchResult | None = None
    ) -> EngineResponse:
        """Build and record the response (a hit, or a miss with its fetch)."""
        response = EngineResponse(
            result=fetch.result if fetch is not None else lookup.result or "",
            latency=latency,
            lookup=lookup,
            fetch=fetch,
        )
        self.metrics.record_response(response)
        self.metrics.evictions = self.cache.stats.evictions
        self.metrics.expirations = self.cache.stats.expirations
        return response

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query: exact-key lookup, else remote fetch."""
        lookup = self._lookup(query, now)
        if lookup.is_hit:
            return self._respond(lookup, lookup.latency)
        fetch = self.remote.fetch_at(query, now + lookup.latency)
        self.cache.insert(query, fetch, now + lookup.latency + fetch.latency)
        return self._respond(lookup, lookup.latency + fetch.latency, fetch)

    def process(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`handle`."""
        start = sim.now
        yield sim.timeout(self.lookup_latency)
        lookup = self._lookup(query, sim.now)
        if lookup.is_hit:
            return self._respond(lookup, sim.now - start)
        fetch = yield from self.remote.fetch(sim, query)
        self.cache.insert(query, fetch, sim.now)
        return self._respond(lookup, sim.now - start, fetch)

    def __repr__(self) -> str:
        return f"ExactEngine(items={len(self.cache)}, hit_rate={self.metrics.hit_rate:.3f})"


class VanillaEngine:
    """Agent_vanilla: no cache — every request is a remote call."""

    def __init__(self, remote: RemoteDataService, name: str = "vanilla") -> None:
        self.remote = remote
        self.name = name
        self.metrics = EngineMetrics()

    def _respond(self, fetch: FetchResult, latency: float) -> EngineResponse:
        """Build and record the response: always a miss with its fetch."""
        self.metrics.record_lookup("miss")
        self.metrics.total_latency.add(latency)
        self.metrics.miss_latency.add(latency)
        self.metrics.served_correct += 1
        self.metrics.remote_latency.add(fetch.latency)
        return EngineResponse(
            result=fetch.result,
            latency=latency,
            lookup=CacheLookup(status="miss", result=None, latency=0.0),
            fetch=fetch,
        )

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Every request is a remote call."""
        fetch = self.remote.fetch_at(query, now)
        return self._respond(fetch, fetch.latency)

    def process(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`handle`."""
        start = sim.now
        fetch = yield from self.remote.fetch(sim, query)
        return self._respond(fetch, sim.now - start)

    def __repr__(self) -> str:
        return f"VanillaEngine(calls={self.remote.calls})"
