"""Real-thread concurrent serving over the Asteria engine (§4.4, Fig. 10).

:class:`ConcurrentEngine` is a thread-pool front-end over
:class:`~repro.core.engine.AsteriaEngine` for serving many agents at once
with *real* parallelism (the simulator's Fig. 10 study models the same
phenomenon in virtual time):

* Cache lookups run concurrently on a thread-safe
  :class:`~repro.core.sharding.ShardedAsteriaCache`; the numpy-heavy stage-1
  work (embed + ANN scoring) releases the GIL, so lookups on different
  shards overlap on real cores.
* Concurrent misses on the same canonical key share one remote fetch via
  :class:`~repro.serving.singleflight.SingleFlight` — the leader fetches and
  admits, followers block and reuse the result (counted in
  ``metrics.coalesced_misses``).
* :class:`~repro.core.metrics.EngineMetrics` updates happen under one small
  record lock, so counters and latency reservoirs are exact under any
  interleaving; :meth:`EngineMetrics.merge` additionally supports per-worker
  accumulation for callers that want lock-free recording.

``io_pause_scale`` maps each fetch's *simulated* remote latency to a real
wall-clock pause (``time.sleep`` releases the GIL, exactly like the socket
wait it stands in for). With it, the closed-loop load generator measures the
paper's serving claim for real: worker pools overlap remote I/O, so
throughput scales with workers until compute saturates the cores.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Generator, Sequence

from repro.core.engine import AsteriaEngine
from repro.core.flow import (
    Admit,
    EngineResponse,
    Fetch,
    Flight,
    Lookup,
    Sleep,
    request_flow,
)
from repro.core.metrics import EngineMetrics
from repro.core.types import FetchResult, Query
from repro.network.remote import RemoteFetchError
from repro.serving.load import LoadReport, LoadWindow
from repro.serving.singleflight import SingleFlight


class ConcurrentEngine:
    """Thread-pool serving front-end over an :class:`AsteriaEngine`.

    Parameters
    ----------
    engine:
        The wrapped engine. With ``workers > 1`` its cache must be
        thread-safe (a :class:`~repro.core.sharding.ShardedAsteriaCache`);
        prefetching and recalibration must be disabled — both mutate
        engine-global state on the request path and belong to the sequential
        and simulated modes.
    workers:
        Thread-pool size for :meth:`handle_concurrent` and the worker count
        for :meth:`run_closed_loop`.
    singleflight:
        The miss-coalescing layer (a private one is created by default;
        share one instance to coalesce across several front-ends).
    io_pause_scale:
        When > 0, every remote fetch sleeps ``fetch.latency * scale`` real
        seconds — the wall-clock stand-in for the network round-trip the
        simulated latency describes. 0 (default) keeps fetches purely
        analytic.
    follower_timeout:
        Optional bound (seconds) on how long a coalesced miss waits behind
        its leader's in-flight fetch before falling back to a private fetch
        of its own (see :meth:`SingleFlight.run`). None (default) waits
        indefinitely.

    Thread-safety map: the sharded cache locks per shard; the remote service
    (sequential RNG + counters) is serialised by ``_remote_lock``; metrics,
    the eval log, and admission decisions by ``_record_lock``. The I/O pause
    happens *outside* all locks, so workers genuinely overlap remote waits.
    """

    def __init__(
        self,
        engine: AsteriaEngine,
        workers: int = 4,
        singleflight: SingleFlight | None = None,
        io_pause_scale: float = 0.0,
        follower_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if io_pause_scale < 0:
            raise ValueError(f"io_pause_scale must be >= 0, got {io_pause_scale}")
        if follower_timeout is not None and follower_timeout <= 0:
            raise ValueError(
                f"follower_timeout must be > 0, got {follower_timeout}"
            )
        if engine.prefetcher is not None or engine.recalibrator is not None:
            raise ValueError(
                "ConcurrentEngine requires prefetching and recalibration "
                "disabled (both mutate engine-global state on the request "
                "path); run those studies through the sequential engine"
            )
        if workers > 1 and not getattr(engine.cache, "thread_safe", False):
            raise ValueError(
                "workers > 1 needs a thread-safe cache; wrap the shards in "
                "ShardedAsteriaCache (factory.build_concurrent_engine does)"
            )
        self.engine = engine
        self.workers = workers
        self.singleflight = singleflight if singleflight is not None else SingleFlight()
        self.io_pause_scale = io_pause_scale
        self.follower_timeout = follower_timeout
        self._remote_lock = threading.Lock()
        self._record_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    # -- KnowledgeEngine-compatible surface ------------------------------------
    @property
    def name(self) -> str:
        return self.engine.name

    @property
    def metrics(self) -> EngineMetrics:
        return self.engine.metrics

    @property
    def cache(self):
        return self.engine.cache

    @property
    def remote(self):
        return self.engine.remote

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer; spans from worker
        threads parent correctly because each thread carries its own
        contextvar context and request roots reset it on exit."""
        self.engine.set_tracer(tracer)

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query on the calling thread (thread-safe)."""
        return self._serve(query, now)

    def handle_concurrent(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve a batch across the worker pool; responses in input order."""
        return self._map(lambda query: self._serve(query, now), list(queries))

    def handle_batched(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve a batch with shared per-shard stage-1 passes.

        Cacheable queries are grouped by their cache shard; each group runs
        as one worker task doing a single embed-batch + ANN search-batch
        pass (``lookup_batch``) under its shard's lock, then finishing every
        query through the scalar flow — single-flight miss coalescing
        included, and it coalesces *across* shard groups because the flight
        key is the canonical text, not the shard. Uncacheable queries bypass
        on their own tasks. Responses return in input order.
        """
        queries = list(queries)
        engine = self.engine
        shard_of = getattr(engine.cache, "shard_index", None)
        groups: dict[int, list[int]] = {}
        bypass: list[list[int]] = []
        for position, query in enumerate(queries):
            if engine._is_cacheable(query):
                shard = shard_of(query.text) if shard_of is not None else 0
                groups.setdefault(shard, []).append(position)
            else:
                bypass.append([position])

        def run_task(positions: list[int]) -> list[EngineResponse]:
            group = [queries[p] for p in positions]
            if not engine._is_cacheable(group[0]):
                return [self._serve(group[0], now)]
            sine_results = engine.cache.lookup_batch(
                group, now, ann_only=engine.config.ann_only
            )
            return [
                self._serve(query, now, sine_result)
                for query, sine_result in zip(group, sine_results)
            ]

        tasks = [*groups.values(), *bypass]
        responses: list[EngineResponse | None] = [None] * len(queries)
        for positions, results in zip(tasks, self._map(run_task, tasks)):
            for position, response in zip(positions, results):
                responses[position] = response
        return responses  # type: ignore[return-value]

    def _map(self, task, items: list) -> list:
        """``task`` over ``items`` on the worker pool — inline with one
        worker, so single-worker runs replay in input order; results in
        input order either way."""
        if self.workers == 1:
            return [task(item) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(task, item) for item in items]
        return [future.result() for future in futures]

    # -- the request path --------------------------------------------------------
    def _serve(self, query: Query, now: float, sine_result=None) -> EngineResponse:
        """One request through the flow; ``sine_result`` is a batched
        entry's finished two-stage lookup."""
        flow = request_flow(self.engine, query, now, batched=sine_result is not None)
        return self._run(flow, query, now, sine_result)

    def _run(
        self,
        flow: Generator,
        query: Query | None = None,
        now: float = 0.0,
        sine_result=None,
    ):
        """The thread driver of :mod:`repro.core.flow`: every resume of the
        generator (its counters, eval log, admission decisions, reservoirs)
        holds ``_record_lock``; effects hold only their own lock, and waits
        none (the class docstring's thread-safety map)."""
        engine = self.engine
        lock = self._record_lock
        try:
            with lock:
                effect = flow.send(None)
            while True:
                result = None
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        if sine_result is None:
                            sine_result = engine._sine_lookup(query, now)
                        with lock:
                            result, _ = engine._lookup_record(query, sine_result)
                    elif kind is Fetch:
                        result = self._fetch(effect.query, effect.at)
                    elif kind is Sleep:
                        if self.io_pause_scale > 0:
                            time.sleep(effect.seconds * self.io_pause_scale)
                    elif kind is Admit:
                        engine.cache.insert(*effect)
                    elif kind is Flight:
                        body = effect.body
                        result = self.singleflight.run(
                            effect.key,
                            lambda: self._run(body),
                            timeout=self.follower_timeout,
                        )
                    else:  # Spawn: on the worker pool, off the caller's path
                        self._ensure_pool().submit(self._run, effect.flow)
                except Exception as exc:
                    with lock:
                        effect = flow.throw(exc)
                else:
                    with lock:
                        effect = flow.send(result)
        except StopIteration as stop:
            return stop.value

    def _fetch(self, query: Query, start: float) -> FetchResult:
        try:
            with self._remote_lock:
                fetch = self.engine.remote.fetch_at(query, start)
        except RemoteFetchError as exc:
            if self.io_pause_scale > 0 and exc.latency > 0:
                # The failed round-trip also burns wall time "on the wire".
                time.sleep(exc.latency * self.io_pause_scale)
            raise
        if self.io_pause_scale > 0:
            # Real blocking I/O stand-in; sleeps release the GIL, so other
            # workers keep serving while this fetch is "on the wire".
            time.sleep(fetch.latency * self.io_pause_scale)
        return fetch

    # -- closed-loop load generation ---------------------------------------------
    def run_closed_loop(
        self,
        queries: Sequence[Query],
        time_step: float = 0.0,
        start: float = 0.0,
        stop: threading.Event | None = None,
    ) -> LoadReport:
        """Drive ``queries`` through ``self.workers`` closed-loop workers.

        Each worker repeatedly claims the next query from a shared cursor and
        serves it to completion before claiming another (a closed loop: load
        applied equals worker count). Query *i* is served at simulated time
        ``start + i * time_step``; wall-clock time is measured around the
        whole run and throughput reported as requests per real second.

        ``stop`` (optional) is checked before each claim: once set, workers
        finish their in-flight request and exit, so a signal handler can end
        the run early with every started request completed and counted — the
        report then covers the requests actually served.
        """
        queries = list(queries)
        cursor = itertools.count()
        n = len(queries)
        errors: list[BaseException] = []

        def worker() -> None:
            while True:
                if stop is not None and stop.is_set():
                    return
                i = next(cursor)  # atomic in CPython
                if i >= n:
                    return
                try:
                    self._serve(queries[i], start + i * time_step)
                except BaseException as exc:  # surface, don't hang the join
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=worker, name=f"load-worker-{w}", daemon=True)
            for w in range(self.workers)
        ]
        window = LoadWindow(self)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return window.report("closed", concurrency=self.workers)

    # -- lifecycle ----------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix=f"{self.name}-worker"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ConcurrentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ConcurrentEngine(name={self.name!r}, workers={self.workers}, "
            f"singleflight={self.singleflight!r})"
        )
