"""Cross-region network substrate.

Models the three externally visible behaviours of the paper's remote data
services: wide-area latency (300-500 ms per call for the search API, ~300 ms
for the self-hosted RAG service), provider rate limits with client-side
retry/backoff (Google's 100 queries/minute), and per-call fees ($5 per 1 000
requests for search — Table 1).

``TokenBucket`` enforces rate limits; ``RetryPolicy``
shapes backoff; ``CostMeter`` accumulates fees; and ``RemoteDataService``
composes them into the thing the cache's miss path talks to. ``FaultInjector``
wraps a service with seeded transient errors, timeouts, latency spikes, and
blackout windows for chaos testing; every failure is a ``RemoteFetchError``
subclass.
"""

from repro.network.faults import (
    FaultInjector,
    InjectedFault,
    RemoteTimeout,
    RemoteUnavailable,
)

from repro.network.cost import (
    CostMeter,
    PRICE_GOOGLE_SEARCH_PER_CALL,
    PRICE_H100_PER_HOUR,
)
from repro.network.ratelimit import RateLimiter, TokenBucket
from repro.network.remote import (
    RateLimitExceeded,
    RemoteDataService,
    RemoteFetchError,
    RetryPolicy,
)

__all__ = [
    "CostMeter",
    "FaultInjector",
    "InjectedFault",
    "PRICE_GOOGLE_SEARCH_PER_CALL",
    "PRICE_H100_PER_HOUR",
    "RateLimitExceeded",
    "RateLimiter",
    "RemoteDataService",
    "RemoteFetchError",
    "RemoteTimeout",
    "RemoteUnavailable",
    "RetryPolicy",
    "TokenBucket",
]
