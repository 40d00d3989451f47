"""The remote data service the cache's miss path talks to.

A :class:`RemoteDataService` composes a latency model, an optional rate
limiter with client-side exponential backoff, and per-call fees. It answers
queries through a pluggable ``resolver`` callable (the workload's fact
universe provides one; the default fabricates deterministic text).

Two execution styles are supported:

* **Analytic** — :meth:`fetch_at` computes the whole fetch (throttle waits,
  retries, service time) given a start time; used by sequential examples and
  unit tests.
* **Discrete-event** — :meth:`fetch` is a generator to be driven with
  ``yield from`` inside a simulated process; contention between concurrent
  clients then emerges from the shared limiter and the event loop.

Both drive one rate-limit ladder, :meth:`RemoteDataService._throttle`: the
analytic driver adds up the waits it yields, the DES driver sleeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Generator

import numpy as np

from repro.core.types import FetchResult, Query, estimate_tokens
from repro.network.cost import CostMeter
from repro.network.ratelimit import RateLimiter
from repro.sim.distributions import Distribution, Uniform, distribution_from_spec
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports us)
    from repro.network.faults import FaultInjector


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for throttled calls.

    Delay for attempt ``k`` (0-based retry count) is
    ``min(base * multiplier**k, max_delay)`` plus uniform jitter of up to
    ``jitter`` seconds. The default retry budget is effectively unbounded
    (clients keep waiting under sustained throttling, which is what inflates
    the baselines' latencies in §6.2); lower it to study fail-fast clients.
    """

    base: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 8.0
    max_retries: int = 1000
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base <= 0 or self.multiplier < 1 or self.max_delay < self.base:
            raise ValueError("invalid backoff parameters")
        if self.max_retries < 0 or self.jitter < 0:
            raise ValueError("max_retries and jitter must be >= 0")

    def delay(self, retry_index: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        delay = min(self.base * self.multiplier**retry_index, self.max_delay)
        if self.jitter > 0:
            delay += float(rng.uniform(0.0, self.jitter))
        return delay


class RemoteFetchError(RuntimeError):
    """Base class for anything a remote fetch can fail with.

    ``latency`` is the simulated time the caller wasted before learning of
    the failure (backoff waits, a burnt timeout deadline, ...); engines
    charge it to the request before degrading.
    """

    def __init__(self, message: str, latency: float = 0.0) -> None:
        super().__init__(message)
        self.latency = latency


class RateLimitExceeded(RemoteFetchError):
    """Raised when a fetch exhausts its retry budget."""


def _default_resolver(query: Query) -> str:
    identity = query.fact_id if query.fact_id is not None else query.text
    return f"[remote] canonical result for {identity}"


class RemoteDataService:
    """A cross-region data service with latency, throttling, and fees.

    Parameters
    ----------
    name:
        Service name, used in stats and cost breakdowns.
    latency:
        Per-call service latency — a :class:`Distribution`, a number, or a
        spec dict. Defaults to U(0.3 s, 0.5 s), the paper's search API range.
    resolver:
        ``resolver(query) -> str`` produces the authoritative result.
    time_resolver:
        Optional ``(query, now) -> str`` resolver for sources whose answers
        change over time (takes precedence over ``resolver``); ``now`` is
        the simulated completion time of the fetch.
    rate_limiter:
        Optional :class:`RateLimiter`; None means unthrottled.
    cost_per_call:
        Fee charged per *successful* call (throttled attempts are free, as
        with real providers). A query's own ``cost`` annotation overrides it.
    retry_policy:
        Backoff shape for throttled attempts.
    rng:
        Generator used for latency draws and jitter.
    cost_meter:
        Optional shared meter; a private one is created otherwise.
    """

    def __init__(
        self,
        name: str = "search-api",
        latency: "Distribution | float | dict | None" = None,
        resolver: Callable[[Query], str] | None = None,
        time_resolver: "Callable[[Query, float], str] | None" = None,
        rate_limiter: RateLimiter | None = None,
        cost_per_call: float = 0.005,
        retry_policy: RetryPolicy | None = None,
        rng: np.random.Generator | None = None,
        cost_meter: CostMeter | None = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        if cost_per_call < 0:
            raise ValueError(f"cost_per_call must be >= 0: {cost_per_call}")
        self.name = name
        self.latency = (
            distribution_from_spec(latency) if latency is not None else Uniform(0.3, 0.5)
        )
        self.resolver = resolver or _default_resolver
        self.time_resolver = time_resolver
        self.rate_limiter = rate_limiter
        self.cost_per_call = cost_per_call
        self.retry_policy = retry_policy or RetryPolicy()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.cost_meter = cost_meter if cost_meter is not None else CostMeter()
        self.fault_injector = fault_injector
        # -- statistics --
        self.calls = 0
        self.attempts = 0
        self.retries = 0

    # -- shared pieces -------------------------------------------------------
    def _throttle(self, now: float) -> Generator[float, float, int]:
        """The rate-limit ladder, written once for both drivers: acquire, else
        back off, else give up. Yields each wait, ``max(backoff,
        next_available - now)``, and is sent the clock once it has passed;
        returns the retries taken, or raises :class:`RateLimitExceeded`.

        Consumes limiter permits and RNG draws, so run exactly once per fetch.
        """
        limiter = self.rate_limiter
        start = now
        retries = 0
        if limiter is None:
            return 0
        while not limiter.try_acquire(now):
            if retries >= self.retry_policy.max_retries:
                raise RateLimitExceeded(
                    f"{self.name}: gave up after {retries} retries",
                    latency=now - start,
                )
            backoff = self.retry_policy.delay(retries, self.rng)
            retries += 1
            self.attempts += 1
            self.retries += 1
            now = yield max(backoff, limiter.next_available(now) - now)
        return retries

    def _complete(
        self,
        query: Query,
        waited: float,
        now: float,
        fault_scale: float,
        retries: int,
    ) -> FetchResult:
        """The granted attempt: service time, result, fee."""
        # Heterogeneous backends: a query may declare that its data source is
        # slower/faster than the service baseline (drives LCFU's cost focus).
        # fault_scale > 1 models an injected latency spike.
        scale = float(query.metadata.get("latency_scale", 1.0)) * fault_scale
        service_time = self.latency.sample(self.rng) * scale
        if self.time_resolver is not None:
            result = self.time_resolver(query, now + service_time)
        else:
            result = self.resolver(query)
        fee = query.cost if query.cost is not None else self.cost_per_call
        self.cost_meter.charge_api_call(fee, tool=query.tool)
        self.calls += 1
        self.attempts += 1
        return FetchResult(
            result=result,
            latency=waited + service_time,
            service_latency=service_time,
            cost=fee,
            retries=retries,
            rate_limited=retries > 0,
            size_tokens=estimate_tokens(result),
        )

    # -- analytic execution -------------------------------------------------------
    def fetch_at(self, query: Query, now: float = 0.0) -> FetchResult:
        """Perform a whole fetch starting at time ``now`` (analytic mode).

        Raises :class:`RemoteFetchError` subclasses on injected faults and
        exhausted retry budgets; the exception's ``latency`` is the simulated
        time wasted before the failure surfaced.
        """
        fault_scale = 1.0
        if self.fault_injector is not None:
            fault_scale = self.fault_injector.check(now)
        ladder = self._throttle(now)
        granted = now
        try:
            wait = next(ladder)
            while True:
                granted += wait
                wait = ladder.send(granted)
        except StopIteration as stop:
            retries = stop.value
        return self._complete(query, granted - now, granted, fault_scale, retries)

    # -- discrete-event execution ----------------------------------------------------
    def fetch(self, sim: Simulator, query: Query) -> Generator:
        """Process-style fetch; drive with ``yield from`` inside a process.

        Returns a :class:`FetchResult` whose latency is measured on the
        simulator clock, so queueing across concurrent callers is real.
        """
        start = sim.now
        fault_scale = 1.0
        if self.fault_injector is not None:
            try:
                fault_scale = self.fault_injector.check(sim.now)
            except RemoteFetchError as exc:
                # Burn the wasted round-trip on the simulator clock before
                # surfacing the failure, so DES latencies stay honest.
                if exc.latency > 0:
                    yield sim.timeout(exc.latency)
                raise
        ladder = self._throttle(sim.now)
        try:
            wait = next(ladder)
            while True:
                yield sim.timeout(wait)
                wait = ladder.send(sim.now)
        except StopIteration as stop:
            retries = stop.value
        fetch = self._complete(query, 0.0, sim.now, fault_scale, retries)
        yield sim.timeout(fetch.service_latency)
        return replace(fetch, latency=sim.now - start)

    @property
    def retry_ratio(self) -> float:
        """Fraction of attempts that were retries (the paper's Figure 12 metric)."""
        if self.attempts == 0:
            return 0.0
        return self.retries / self.attempts

    def __repr__(self) -> str:
        return (
            f"RemoteDataService({self.name!r}, calls={self.calls}, "
            f"retries={self.retries}, cost=${self.cost_meter.api_cost:.4f})"
        )
