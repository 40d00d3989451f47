"""The socket workloads' system under test: ProcServer over two workers.

``python -m repro serve`` cannot set the cache capacity, so the benchmark
starts the same stack itself: ``build_proc_engine`` behind ``ProcServer``,
in a process of its own so that its CPU and memory can be told apart from
the load generator's.

The load generator drives it over stdin/stdout with one JSON object per
line. The launcher announces ``ready`` with its port and the process ids to
account; ``snap`` asks for the counters no socket op exposes (remote calls,
coalesced misses, shard stats); ``reset`` drops what the traced pass has
recorded so far (the warm-up); ``stop`` — or end of input, which is what a
dead load generator looks like — drains the server, stops the workers and
reports. Workers exit on their own when the router's socket closes, so
nothing outlives the launcher even if it is killed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

import numpy as np

from benchmarks.cortexbench import gen, spec
from benchmarks.cortexbench.trace import Spans
from repro.core import AsteriaConfig
from repro.factory import build_proc_engine, build_remote
from repro.serving.proc import ProcServer

#: Seconds between event-loop lag probes.
LAG_PROBE_INTERVAL = 0.005


def _say(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class Tracing:
    """The traced pass's server side: spans on the router's calls into the
    worker pool and the remote, plus an event-loop lag probe."""

    def __init__(self, engine) -> None:
        self.spans = Spans()
        self.lag: list[float] = []
        self.inflight_peak = 0
        spans = self.spans
        spans.instrument(engine.pool, "serving.proc.pool", ["lookup", "insert"], is_async=True)
        spans.instrument(engine.remote, "network.remote", ["fetch"], is_async=True)
        spans.instrument(engine.singleflight, "serving.aio.singleflight", ["run"], is_async=True)
        timed_serve = spans.wrap_async("serving.proc.router.serve", engine.serve)

        async def serve(query, now=0.0, deadline=None):
            # The simulated clock is the request's index times the step.
            spans.request.set(round(now / spec.TIME_STEP))
            self.inflight_peak = max(self.inflight_peak, engine.inflight + 1)
            return await timed_serve(query, now=now, deadline=deadline)

        engine.serve = serve
        self._probe = asyncio.ensure_future(self._probe_lag())

    async def _probe_lag(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_PROBE_INTERVAL)
            self.lag.append(loop.time() - before - LAG_PROBE_INTERVAL)

    def reset(self) -> None:
        # Only called between phases of a closed loop: no span is open.
        self.spans.rows.clear()
        self.lag.clear()
        self.inflight_peak = 0

    async def report(self) -> dict:
        self._probe.cancel()
        await asyncio.gather(self._probe, return_exceptions=True)
        return {
            "summary": self.spans.summary(),
            "leaf_seconds": self.spans.leaf_seconds(),
            "rows": self.spans.rows,
            "loop_lag_ms_p99": float(np.percentile(self.lag, 99) * 1e3) if self.lag else 0.0,
            "inflight_peak": self.inflight_peak,
        }


def _snapshot(engine, remote) -> dict:
    stats = engine.pool.stats_snapshot()
    return {
        "requests": engine.metrics.requests,
        "hits": engine.metrics.hits,
        "remote_calls": remote.calls,
        "coalesced": engine.singleflight.shared,
        "inserts": stats.inserts,
        "evictions": stats.evictions,
        "resident_items": engine.pool.usage_snapshot(),
        "worker_restarts": engine.metrics.worker_restarts,
    }


async def serve(args) -> None:
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    universe = gen.build_universe(workload.name, workload.facts, args.seed)
    remote = build_remote(universe, seed=args.seed)
    engine = build_proc_engine(
        remote,
        config=AsteriaConfig(capacity_items=workload.capacity),
        seed=args.seed,
        workers=spec.SOCKET_WORKERS,
        io_pause_scale=spec.IO_PAUSE_SCALE,
    )
    server = ProcServer(engine, port=0)
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    # SIGTERM reads as end of input: the same orderly stop.
    loop.add_signal_handler(signal.SIGTERM, commands.feed_eof)
    try:
        await server.start()
        tracing = Tracing(engine) if args.trace else None
        _say("ready", port=server.port, pid=os.getpid(), worker_pids=engine.pool.worker_pids())
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
        while True:
            command = (await commands.readline()).strip()
            if command == b"snap":
                _say("snap", **_snapshot(engine, remote))
            elif command == b"reset" and tracing is not None:
                tracing.reset()
                _say("reset")
            elif command in (b"stop", b""):
                break
            else:
                raise ValueError(f"unknown command {command!r}")
        final = _snapshot(engine, remote)
        if tracing is not None:
            final["trace"] = await tracing.report()
        await server.shutdown()
        _say("stop", **final)
    finally:
        # Idempotent hard stop: a no-op after a clean shutdown, the only
        # thing between a failure above and two orphaned workers otherwise.
        engine.pool.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
