"""One workload, one pass, in a fresh process with the pinned environment.

The runner (``__main__``) starts this module once per workload and pass and
reads one JSON object from its stdout. Everything measured happens here:
inputs are generated from the seed before any timing, the program receives
only the generated queries, every reply is checked against the fact
universe's authoritative answer, and the timed phase is a closed loop — an
agent issues a tool call and waits for the reply — cut into equal-count
windows (see :mod:`benchmarks.cortexbench.measure`).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from benchmarks.cortexbench import gen, measure, spec
from repro.core import AsteriaConfig
from repro.core.types import Query
from repro.factory import build_asteria_engine, build_remote
from repro.serving.proc import ProcClient
from repro.serving.proc.client import ProcClientError
from repro.workloads import Paraphraser

_clock = time.perf_counter
_SERVED = ("ok", "stale_hit")
#: Seconds to wait for the launcher to come up or to drain and report.
LAUNCHER_TIMEOUT = 60.0


@dataclass
class Inputs:
    universe: object
    answers: dict[str, str]
    prefill: list[Query]
    warm: list[Query]
    timed: list[Query]
    expected: list[str]  # authoritative answer per timed request


def make_inputs(workload: spec.Workload, counts: spec.Counts, seed: int) -> Inputs:
    universe = gen.build_universe(workload.name, workload.facts, seed)
    answers = gen.authoritative_answers(universe)
    stream = gen.build_stream(universe, workload.zipf_s, counts.warm + counts.timed, seed)
    prefill: list[Query] = []
    if workload.prefill:
        paraphraser = Paraphraser()
        prefill = [
            gen.query_for(universe.by_rank(rank), paraphraser, 0)
            for rank in range(workload.capacity)
        ]
    timed = stream[counts.warm :]
    return Inputs(
        universe=universe,
        answers=answers,
        prefill=prefill,
        warm=stream[: counts.warm],
        timed=timed,
        expected=[answers[query.fact_id] for query in timed],
    )


@dataclass
class Phase:
    """Raw samples of one closed-loop phase."""

    latencies: np.ndarray  # seconds, completion order
    wall_marks: np.ndarray
    cpu_marks: np.ndarray
    odd: list  # (request index, reply or error) for every reply that is not
    #            a served, authoritative answer


def check_replies(inputs: Inputs, phase: Phase, requests: int) -> dict:
    """Judge every odd reply; the rest already matched the authority."""
    fact_of = {text: fact_id for fact_id, text in inputs.answers.items()}
    sent = {q.fact_id for q in inputs.prefill + inputs.warm + inputs.timed}
    unserved = wrong = 0
    problems: list[str] = []
    for index, reply in phase.odd:
        if isinstance(reply, str):
            unserved += 1
            problems.append(f"request {index}: transport error: {reply}")
        elif reply["status"] not in _SERVED:
            unserved += 1
            problems.append(f"request {index}: refused with status {reply['status']}")
        else:
            wrong += 1
            fact_id = fact_of.get(reply["result"])
            if fact_id is None:
                problems.append(f"request {index}: reply matches no fact in the universe")
            elif fact_id not in sent:
                problems.append(f"request {index}: reply is for {fact_id}, which was never sent")
    served = requests - unserved
    return {
        "precision": (served - wrong) / served if served else 0.0,
        "served_fraction": served / requests,
        "failed": unserved,
        "wrong_answers": wrong,
        "problems": problems,
    }


def end_to_end(
    inputs: Inputs, phase: Phase, cpu_marks, requests: int,
    peak_rss_mb: float, hits: int, remote_calls: int, setup_s: float,
) -> dict:
    """The ten end-to-end metrics of one timed phase, and the reply check."""
    metrics, info = measure.window_metrics(phase.latencies, phase.wall_marks, cpu_marks)
    checked = check_replies(inputs, phase, requests)
    metrics.update(
        peak_rss_mb=peak_rss_mb,
        hit_rate=hits / requests,
        remote_calls_per_req=remote_calls / requests,
        precision=checked["precision"],
        served_fraction=checked["served_fraction"],
        setup_s=setup_s,
    )
    return {"metrics": metrics, "info": info, "checked": checked}


# -- sync workloads: one caller on engine.handle --------------------------------
def build_sync_engine(workload: spec.Workload, inputs: Inputs, seed: int):
    engine = build_asteria_engine(
        build_remote(inputs.universe, seed=seed),
        config=AsteriaConfig(capacity_items=workload.capacity),
        seed=seed,
        index_kind="flat",
        policy="lcfu",
    )
    for query in inputs.prefill:
        engine.cache.insert(query, engine.remote.fetch_at(query, 0.0), 0.0)
    for index, query in enumerate(inputs.warm):
        engine.handle(query, index * spec.TIME_STEP)
    return engine


def drive_sync(handle, queries, expected, base_index: int, windows: int) -> Phase:
    total = len(queries)
    size = total // windows
    latencies = np.empty(total)
    wall = np.empty(windows + 1)
    cpu = np.empty(windows + 1)
    odd: list = []
    step = spec.TIME_STEP
    for window in range(windows):
        wall[window] = _clock()
        cpu[window] = time.process_time()
        for index in range(window * size, (window + 1) * size):
            query = queries[index]
            start = _clock()
            response = handle(query, (base_index + index) * step)
            latencies[index] = _clock() - start
            if response.degraded is not None or response.result != expected[index]:
                status = "failed" if response.degraded == "failed" else "ok"
                odd.append((index, {"status": status, "result": response.result}))
    wall[windows] = _clock()
    cpu[windows] = time.process_time()
    return Phase(latencies, wall, cpu, odd)


def run_sync(workload, counts, seed, started) -> dict:
    inputs = make_inputs(workload, counts, seed)
    engine = build_sync_engine(workload, inputs, seed)
    gc.collect()
    gc.freeze()
    hits, calls = engine.metrics.hits, engine.remote.calls
    setup_s = time.time() - started
    phase = drive_sync(engine.handle, inputs.timed, inputs.expected, counts.warm, counts.windows)
    result = end_to_end(
        inputs, phase, phase.cpu_marks, counts.timed,
        peak_rss_mb=measure.peak_rss_mib(os.getpid()),
        hits=engine.metrics.hits - hits,
        remote_calls=engine.remote.calls - calls,
        setup_s=setup_s,
    )
    result["info"]["callers"] = 1
    return result


# -- socket workloads: ProcClient callers against the launcher -------------------
class Launcher:
    """The server subprocess, seen from the load generator."""

    def __init__(self, workload: spec.Workload, seed: int, trace: bool) -> None:
        self._argv = [
            sys.executable, "-m", "benchmarks.cortexbench.launcher",
            "--workload", workload.name, "--seed", str(seed), "--trace", str(int(trace)),
        ]
        self.process = None
        self.port = 0
        self.pids: list[int] = []

    async def __aenter__(self) -> "Launcher":
        self.process = await asyncio.create_subprocess_exec(
            *self._argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=spec.ROOT,
            limit=1 << 28,  # the traced pass reports its spans on one line
        )
        ready = await self._event("ready")
        self.port = ready["port"]
        self.pids = [ready["pid"], *ready["worker_pids"]]
        return self

    async def _event(self, name: str) -> dict:
        line = await asyncio.wait_for(self.process.stdout.readline(), LAUNCHER_TIMEOUT)
        if not line:
            raise RuntimeError(f"launcher exited before {name!r}")
        event = json.loads(line)
        if event["event"] != name:
            raise RuntimeError(f"expected {name!r} from the launcher, got {event['event']!r}")
        return event

    async def ask(self, command: str) -> dict:
        self.process.stdin.write(command.encode() + b"\n")
        await self.process.stdin.drain()
        return await self._event(command)

    async def __aexit__(self, *exc) -> None:
        # Reached with the launcher still up only when something failed:
        # closing stdin asks it to stop; kill it if it does not.
        if self.process.returncode is None:
            self.process.stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), LAUNCHER_TIMEOUT)
            except asyncio.TimeoutError:
                self.process.kill()
        await self.process.wait()


async def drive_socket(
    clients, callers: int, queries, expected, base_index: int, windows: int, pids=(),
    before_call=None,
) -> Phase:
    """``callers`` callers, each sending its next request when the last
    one is answered. Latencies and window edges are in completion order;
    ``cpu_marks`` has one column per process in ``pids``."""
    total = len(queries)
    size = total // windows if windows else 0
    latencies = np.empty(total)
    wall = np.empty(windows + 1)
    cpu = np.empty((windows + 1, len(pids)))
    odd: list = []
    step = spec.TIME_STEP
    issued = completed = 0

    def mark(edge: int) -> None:
        wall[edge] = _clock()
        cpu[edge] = [measure.cpu_seconds(pid) for pid in pids]

    async def caller(client) -> None:
        nonlocal issued, completed
        while issued < total:
            index = issued
            issued += 1
            if before_call is not None:
                before_call(index)
            start = _clock()
            try:
                reply = await client.serve(queries[index], now=(base_index + index) * step)
            except ProcClientError as exc:
                reply = f"{type(exc).__name__}: {exc}"
            latencies[completed] = _clock() - start
            if (
                isinstance(reply, str)
                or reply["status"] not in _SERVED
                or (expected is not None and reply["result"] != expected[index])
            ):
                odd.append((index, reply))
            completed += 1
            if size and completed % size == 0:
                mark(completed // size)

    if windows:
        mark(0)
    await asyncio.gather(
        *(caller(clients[number % len(clients)]) for number in range(callers))
    )
    return Phase(latencies, wall, cpu, odd)


@dataclass
class SocketRun:
    phase: Phase
    before: dict  # the launcher's counters at the start of the phase
    after: dict  # ... and when it stopped (with its trace report, if traced)
    peak_rss_mib: float
    ready_at: float  # time.time() when the phase began
    connections: int


async def serve_over_socket(
    workload, inputs: Inputs, seed: int, warm_count: int, requests: int, windows: int,
    spans=None,
) -> SocketRun:
    """Launch the server, warm it up, serve the first ``requests`` timed
    queries in a closed loop, stop the server. With ``spans`` (a
    :class:`~benchmarks.cortexbench.trace.Spans`), the phase is traced on both
    sides of the socket."""
    async with Launcher(workload, seed, trace=spans is not None) as launcher:
        connections = min(spec.MAX_CONNECTIONS, len(os.sched_getaffinity(0)))
        clients = [
            await ProcClient.connect("127.0.0.1", launcher.port) for _ in range(connections)
        ]
        try:
            warm = await drive_socket(clients, workload.callers, inputs.warm, None, 0, 0)
            if warm.odd:
                raise RuntimeError(f"warm-up request failed: {warm.odd[0]}")
            set_request = None
            if spans is not None:
                for client in clients:
                    spans.instrument(client, "serving.proc.client", ["serve"], is_async=True)
                    spans.instrument(
                        client.codec, "serving.proc.codec", ["dumps", "loads"],
                        notes={
                            "dumps": lambda args, payload: len(payload),
                            "loads": lambda args, obj: len(args[0]),
                        },
                    )
                await launcher.ask("reset")

                def set_request(index: int) -> None:
                    spans.request.set(warm_count + index)

            gc.collect()
            gc.freeze()
            before = await launcher.ask("snap")
            ready_at = time.time()
            phase = await drive_socket(
                clients, workload.callers, inputs.timed[:requests], inputs.expected[:requests],
                warm_count, windows, pids=launcher.pids, before_call=set_request,
            )
            peak_rss = sum(measure.peak_rss_mib(pid) for pid in launcher.pids)
        finally:
            for client in clients:
                await client.aclose()
        after = await launcher.ask("stop")
    return SocketRun(phase, before, after, peak_rss, ready_at, connections)


async def run_socket(workload, counts, seed, started) -> dict:
    inputs = make_inputs(workload, counts, seed)
    run = await serve_over_socket(
        workload, inputs, seed, counts.warm, counts.timed, counts.windows
    )
    result = end_to_end(
        inputs, run.phase, run.phase.cpu_marks.sum(axis=1), counts.timed,
        peak_rss_mb=run.peak_rss_mib,
        hits=run.after["hits"] - run.before["hits"],
        remote_calls=run.after["remote_calls"] - run.before["remote_calls"],
        setup_s=run.ready_at - started,
    )
    if run.after["worker_restarts"]:
        result["checked"]["problems"].append(f"{run.after['worker_restarts']} worker restarts")
    result["info"].update(callers=workload.callers, connections=run.connections)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() when the runner started this process")
    args = parser.parse_args()
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    counts = spec.counts_for(workload, args.seconds, args.smoke)
    if args.trace:
        from benchmarks.cortexbench import traced

        result = traced.run(workload, counts, args.seed)
    elif workload.kind == "sync":
        result = run_sync(workload, counts, args.seed, args.started)
    else:
        result = asyncio.run(run_socket(workload, counts, args.seed, args.started))
    checked = result.pop("checked")
    result.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        counts=asdict(counts),
        attempted=counts.traced if args.trace else counts.timed,
        failed=checked["failed"],
        precision=checked["precision"],
        wrong_answers=checked["wrong_answers"],
        problems=checked["problems"],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
