"""The request lifecycle, written once (§3.3/§4; DESIGN "Request lifecycle").

    recalibrate τ_lsm when due (Algorithm 1)
    cacheable? ─no──▶ Fetch ──▶ record (bypass)
        │yes
      Lookup ──hit──▶ record
        │miss (CacheUnavailable: stale first, else the same path uncached)
      negative-cache / breaker gate ──refused──▶ degrade (+ Spawn refresh)
        │allow
      Flight[ Fetch ⟲ Sleep (retry + backoff) ▶ on_success ▶ Admit ]
        │ok ──▶ record            │failed ──▶ degrade: stale hit | failed
    served from the cache ──▶ Spawn one prefetch per Markov successor

:func:`request_flow` is a *sans-IO* generator: it decides, counts and
records, and yields an **effect** whenever the world has to be touched. A
driver performs the effect its own way and sends the result back (or throws
the failure in); the generator returns the :class:`EngineResponse`. The
drivers — ``AsteriaEngine.handle`` / ``.process``, ``AsyncAsteriaEngine``
and its ``ProcAsteriaEngine`` subclass — add only what is unique to their
tier.

Simulated time is summed here from what effects report (``lookup.latency``,
``fetch.latency``, a failure's ``exc.latency``, backoff delays), so every
driver charges a request the same way: ``lookup + retry overhead + fetch``.

``host`` is the :class:`~repro.core.engine.AsteriaEngine` — or anything with
its ``tracer``/``resilience``/``metrics``/``recalibrator``/``prefetcher``
attributes and ``_is_cacheable``/``_should_admit``/``_record_response``/
``_record_degraded`` methods (plus ``_maybe_recalibrate`` and
``_inflight_prefetch`` when those two are set); nothing here touches a
cache, a remote, a clock or a lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, NamedTuple

from repro.core.sine import canonical_text
from repro.core.resilience import FetchFailed
from repro.core.types import CacheLookup, FetchResult, Query
from repro.network.faults import InjectedFault
from repro.network.remote import RemoteFetchError


@dataclass(frozen=True, slots=True)
class EngineResponse:
    """What the agent gets back for one tool call.

    ``degraded`` is None on the normal path; a fault-degraded response sets
    it to ``"stale_hit"`` (served from the last-known-good store, possibly
    past its TTL) or ``"failed"`` (no fallback available — ``result`` is
    empty and the caller must handle the miss itself).
    """

    result: str
    latency: float
    lookup: CacheLookup
    fetch: FetchResult | None = None
    degraded: str | None = None

    @property
    def served_from_cache(self) -> bool:
        return self.lookup.is_hit


# -- effects ---------------------------------------------------------------------
class Lookup:
    """Two-stage lookup of the request's own query → ``(CacheLookup,
    matched element or None)``; the element's key is the Markov state a hit
    feeds the prefetcher.

    Carries nothing — the driver that started the flow holds the query and
    the clock — so a hit allocates no effect;
    :data:`LOOKUP` is the one instance. A driver whose cache cannot answer
    throws :class:`CacheUnavailable` instead.
    """

    __slots__ = ()


LOOKUP = Lookup()


class Fetch(NamedTuple):
    """One remote round-trip starting at simulated ``at`` → ``FetchResult``,
    or a thrown ``RemoteFetchError`` whose ``latency`` is the time wasted."""

    query: Query
    at: float


class Sleep(NamedTuple):
    """Retry backoff, already charged to the request; drivers with a wall
    clock or a simulator also wait it out."""

    seconds: float


class Covered(NamedTuple):
    """Stage-1 membership probe: does the cache hold anything near
    ``query``? → ``bool``, or a thrown :class:`CacheUnavailable`."""

    query: Query


class Admit(NamedTuple):
    """Insert a fetched result into the cache as of simulated ``at``;
    ``prefetched`` marks a speculative entry (LCFU evicts it first)."""

    query: Query
    fetch: FetchResult
    at: float
    prefetched: bool = False


class Flight(NamedTuple):
    """Run sub-flow ``body`` once per concurrent ``key`` → ``(its return
    value, shared)``; ``shared`` marks a caller that reused another's
    flight. A failure reaches every sharer as the same exception object."""

    key: tuple
    body: Generator


class Spawn(NamedTuple):
    """Run ``flow`` in the background, off the caller's latency path."""

    flow: Generator


class CacheUnavailable(Exception):
    """Thrown into the flow at :data:`LOOKUP` when the cache that would answer
    is unreachable (the proc tier's dead or recovering shard)."""


_BYPASS = CacheLookup(status="bypass", result=None, latency=0.0)
_UNCACHED = CacheLookup(status="miss", result=None, latency=0.0)


# -- accounting shared by every flow ---------------------------------------------
def resilience_key(query: Query) -> tuple[str, str]:
    """Stale-store / negative-cache / flight identity: tool + canonical text."""
    return (query.tool, canonical_text(query.text))


def account_failure(host, key: tuple, exc: Exception, at: float) -> None:
    """Record one failed flight exactly once.

    The same exception object reaches every coalesced follower of a failed
    leader flight, so the marker keeps breaker windows and
    ``fetch_failures`` counting *flights*, not disappointed callers.
    """
    if getattr(exc, "_accounted", False):
        return
    exc._accounted = True  # type: ignore[attr-defined]
    host.metrics.fetch_failures += 1
    host.resilience.on_failure(key, at)


# -- the flow --------------------------------------------------------------------
def request_flow(host, query: Query, now: float) -> Generator:
    """Resolve one query starting at simulated ``now``; returns the response.

    Never raises on remote failure: faults, exhausted retries and an open
    breaker all degrade into an explicit ``stale_hit``/``failed`` response.
    A sampled request runs under one root span, opened and closed here in
    whatever thread or task drives the generator.

    Recalibration (Algorithm 1) runs inline first, outside the span: it does
    no I/O (ground truth is charged, not fetched), and a ``Spawn`` would move
    the DES clock. After a response the cache served without degrading, the
    prefetcher observes the request and each predicted successor is one
    ``Spawn(prefetch_flow(...))``, started when the response completes.
    """
    if host.recalibrator is not None:
        host._maybe_recalibrate(now)
    tracer = host.tracer
    span = tracer.request() if tracer is not None and tracer.sample() else None
    response = None
    try:
        if not host._is_cacheable(query):
            response = yield from _bypass(host, query, now)
            return response
        cached = True
        try:
            lookup, element = yield LOOKUP
        except CacheUnavailable:
            # Per-domain degradation: the last-known-good result if one is
            # banked, else the ordinary miss path minus the cache — gated by
            # the *global* breaker, still single-flighted, nothing admitted,
            # recorded as a bypass. Healthy shards never see this branch.
            cached = False
            lookup = _UNCACHED
            key = resilience_key(query)
            response = yield from _degrade(
                host, query, now, lookup, key, now, or_fail=False
            )
            if response is not None:
                return response
        if lookup.is_hit:
            response = EngineResponse(
                result=lookup.result or "", latency=lookup.latency, lookup=lookup
            )
            host._record_response(response, query, now)
        else:
            response = yield from _miss(host, query, now, lookup, cached)
    finally:
        if span is not None:
            # One dict literal instead of request(tool=...) + set(outcome=...):
            # two kwargs allocations per request add up at tracing's budget.
            span.attrs = {
                "tool": query.tool,
                "outcome": "abandoned"
                if response is None
                else response.degraded or response.lookup.status,
            }
            span.__exit__(None, None, None)
    if cached and host.prefetcher is not None and response.degraded is None:
        # A hit's Markov state is the matched key, so paraphrases share one.
        state = element.key if element is not None else query.text
        at = now + response.latency
        for successor in host.prefetcher.observe(query, state):
            yield Spawn(prefetch_flow(host, successor.to_query(), at))
    return response


def _bypass(host, query: Query, now: float) -> Generator:
    """Uncacheable tool: straight to the remote; no retry, no admission."""
    key = resilience_key(query)
    try:
        fetch = yield Fetch(query, now)
    except RemoteFetchError as exc:
        account_failure(host, key, exc, now + exc.latency)
        return (yield from _degrade(host, query, now, _BYPASS, key, now, exc.latency))
    host.resilience.on_success(key, fetch, now + fetch.latency)
    response = EngineResponse(
        result=fetch.result, latency=fetch.latency, lookup=_BYPASS, fetch=fetch
    )
    host._record_response(response, query, now)
    return response


def _miss(
    host, query: Query, now: float, lookup: CacheLookup, cached: bool
) -> Generator:
    """The guarded miss path: breaker/negative-cache gate, then one
    single-flight flight, degrading on refusal or failure."""
    key = resilience_key(query)
    start = now + lookup.latency
    verdict = host.resilience.admit(key, start)
    if verdict != "allow":
        if verdict == "negative":
            host.metrics.negative_cache_hits += 1
        else:
            host.metrics.breaker_open_rejects += 1
        return (yield from _degrade(host, query, now, lookup, key, start, refresh=True))
    if not cached:
        host.metrics.shard_down_fetches += 1
    try:
        (fetch, elapsed), shared = yield Flight(
            key, fetch_and_admit(host, query, key, start, admit=cached)
        )
    except RemoteFetchError as exc:
        # Leaders raise their own FetchFailed; followers re-raise the
        # leader's (deduplicated by account_failure's marker).
        account_failure(host, key, exc, start + exc.latency)
        return (yield from _degrade(host, query, now, lookup, key, start, exc.latency))
    if shared:
        host.metrics.coalesced_misses += 1
    response = EngineResponse(
        result=fetch.result,
        latency=lookup.latency + elapsed,
        lookup=lookup if cached else _BYPASS,
        fetch=fetch,
    )
    host._record_response(response, query, now)
    return response


def fetch_and_admit(
    host, query: Query, key: tuple, start: float, admit: bool = True
) -> Generator:
    """Leader flight: remote fetch with transient-fault retries, success
    banked as last-known-good, then admission. Returns ``(fetch, elapsed)``,
    ``elapsed`` being the simulated time from ``start`` to arrival."""
    tracer = host.tracer
    traced = tracer is not None and tracer.live and tracer.active()
    t0 = tracer.clock() if traced else 0.0
    fetch, overhead, retries = yield from fetch_retrying(host.resilience, query, start)
    if traced:
        tracer.record_leaf("remote_fetch", t0, {"retries": retries, "cost": fetch.cost})
    elapsed = overhead + fetch.latency
    arrival = start + elapsed
    host.resilience.on_success(key, fetch, arrival)
    if admit and host._should_admit(query, fetch, arrival):
        if tracer is None or not tracer.live:
            yield Admit(query, fetch, arrival)
        else:
            with tracer.span("admit"):
                yield Admit(query, fetch, arrival)
    return fetch, elapsed


def fetch_retrying(resilience, query: Query | None, start: float) -> Generator:
    """The transient-fault retry loop. Returns the fetch, the simulated
    overhead accrued by failed attempts and backoff, and the retries taken;
    raises :class:`FetchFailed` carrying the total wasted time otherwise.

    Injected transient faults are retried up to the policy's budget;
    anything else (e.g. ``RateLimitExceeded``) fails immediately.
    """
    overhead = 0.0
    attempt = 0
    while True:
        try:
            fetch = yield Fetch(query, start + overhead)
            return fetch, overhead, attempt
        except InjectedFault as exc:
            overhead += exc.latency
            if attempt >= resilience.retry_policy.max_retries:
                raise FetchFailed(
                    f"retries exhausted after {attempt + 1} attempts: {exc}",
                    latency=overhead,
                    cause=exc,
                ) from exc
            delay = resilience.next_delay(attempt)
            overhead += delay
            if delay > 0:
                yield Sleep(delay)
            attempt += 1
        except RemoteFetchError as exc:
            raise FetchFailed(
                f"non-retryable fetch failure: {exc}",
                latency=overhead + exc.latency,
                cause=exc,
            ) from exc


def refresh_flow(host, query: Query, key: tuple, start: float) -> Generator:
    """Stale-while-revalidate: one more flight for ``key``, coalesced with
    any foreground flight, charged to nobody's latency."""
    tracer = host.tracer
    try:
        if tracer is None or not tracer.live:
            yield Flight(key, fetch_and_admit(host, query, key, start))
        else:
            with tracer.span("stale_refresh"):
                yield Flight(key, fetch_and_admit(host, query, key, start))
    except RemoteFetchError as exc:
        account_failure(host, key, exc, start + exc.latency)


def prefetch_flow(host, query: Query, at: float) -> Generator:
    """Algorithm 3's speculative fetch of one predicted successor, from
    simulated ``at``: skipped while one for the same text is in flight or
    when the cache already covers it, counted once issued, and admitted as
    prefetched unless the cache came to cover it meanwhile. A failed fetch
    is dropped once the breaker has heard of it; so is the whole prefetch
    when the cache cannot answer."""
    inflight = host._inflight_prefetch
    if query.text in inflight:
        return
    try:
        if (yield Covered(query)):
            return
        inflight.add(query.text)
        host.metrics.prefetches_issued += 1
        try:
            fetch = yield Fetch(query, at)
            if not (yield Covered(query)):
                yield Admit(query, fetch, at + fetch.latency, True)
        except RemoteFetchError as exc:
            account_failure(host, resilience_key(query), exc, at + exc.latency)
        finally:
            inflight.discard(query.text)
    except CacheUnavailable:
        pass


def _degrade(
    host, query: Query, now: float, lookup: CacheLookup, key: tuple, at: float,
    wasted: float = 0.0, refresh: bool = False, or_fail: bool = True,
) -> Generator:
    """The degraded response for a miss flight refused at ``at`` or failed
    after burning ``wasted`` simulated seconds: the last-known-good result
    as an explicit ``stale_hit`` when one is banked (revalidated in the
    background when ``refresh`` is set and the breaker grants a probe),
    else an explicit ``failed`` — or, without ``or_fail``, None."""
    entry = host.resilience.stale_for(key, at + wasted)
    if entry is None and not or_fail:
        return None
    latency = lookup.latency + wasted
    if entry is not None:
        host.metrics.stale_hits += 1
        response = EngineResponse(
            result=entry.fetch.result,
            latency=latency,
            lookup=lookup,
            degraded="stale_hit",
        )
    else:
        host.metrics.failed_requests += 1
        response = EngineResponse(
            result="", latency=latency, lookup=lookup, degraded="failed"
        )
    host._record_degraded(response, query, now)
    if entry is not None and refresh and host.resilience.allow_probe(at):
        host.metrics.background_refreshes += 1
        yield Spawn(refresh_flow(host, query, key, at))
    return response
