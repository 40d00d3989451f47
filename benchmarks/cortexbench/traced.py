"""The traced pass: where a request's time goes, layer by layer.

Runs the same warm-up and then the first tenth of the timed requests twice:
once plain, once with spans around every public call across a layer boundary
(:mod:`benchmarks.cortexbench.trace`). The plain run gives the baseline the
tracing overhead is measured against, and on the sync workloads, where the
engine is deterministic, it doubles as a check that wrapping the calls
changed no decision. End-to-end metrics never come from here.

A layer is a module of ``repro``. What can be wrapped depends on where the
layer runs: on the sync workloads everything runs in this process; on the
socket workloads the cache, index, embedder and judger run inside worker
processes the benchmark does not reach into, so those layers report only
what the router's shard statistics expose, and the time they take is seen
from outside as the pool round-trips and the workers' CPU.
"""

from __future__ import annotations

import asyncio
import sys

from benchmarks.cortexbench import child, spec
from benchmarks.cortexbench.trace import Spans, write_spans

_NONE = {"calls": 0, "total": 0.0, "self": 0.0, "value": 0.0, "min_self": 0.0}


class _Table:
    """Span summaries, read the way the metrics need them."""

    def __init__(self, summary: dict, requests: int) -> None:
        self.summary = summary
        self.requests = requests

    def _sum(self, names, field: str) -> float:
        return sum(self.summary.get(name, _NONE)[field] for name in names)

    def per_request(self, *names, field: str = "calls") -> float:
        return self._sum(names, field) / self.requests

    def us_per_request(self, *names, field: str = "total") -> float:
        return self._sum(names, field) / self.requests * 1e6

    def mean_us(self, *names, field: str = "total") -> float:
        calls = self._sum(names, "calls")
        return self._sum(names, field) / calls * 1e6 if calls else 0.0

    def mean_value(self, name: str) -> float:
        entry = self.summary.get(name, _NONE)
        return entry["value"] / entry["calls"] if entry["calls"] else 0.0

    def negative_self(self) -> list[str]:
        return [
            f"span {name} has negative self time ({entry['min_self']:.3g} s)"
            for name, entry in self.summary.items()
            if entry["min_self"] < -1e-9
        ]


def _all_metrics(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where this workload has no reading."""
    unknown = set(values) - {name for name, _, _ in spec.PER_LAYER}
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name, _, _ in spec.PER_LAYER}


def _merge_checks(*checks: dict) -> dict:
    merged = dict(checks[-1])
    merged["failed"] = sum(c["failed"] for c in checks)
    merged["problems"] = [p for c in checks for p in c["problems"]]
    return merged


def count_py_calls(handle, queries, base_index: int) -> float:
    """Python-level function calls per request: interpreter work as a count,
    which repeats exactly where a timing would not."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        for index, query in enumerate(queries):
            handle(query, (base_index + index) * spec.TIME_STEP)
    finally:
        sys.setprofile(None)
    return calls / len(queries) if queries else 0.0


# -- sync ------------------------------------------------------------------------
def _instrument_engine(engine, spans: Spans):
    cache = engine.cache
    sine = cache.sine
    tau_sim, tau_lsm = sine.tau_sim, sine.tau_lsm
    spans.instrument(sine.embedder, "embedding", ["embed"])
    spans.instrument(
        sine.index, "ann", ["search", "add", "add_slot", "remove"],
        notes={"search": lambda args, hits: sum(hit.score >= tau_sim for hit in hits)},
    )
    spans.instrument(
        sine.judger, "judger", ["judge"],
        notes={"judge": lambda args, verdict: verdict.score >= tau_lsm},
    )
    spans.instrument(sine, "core.sine", ["retrieve"])
    spans.instrument(cache.backend, "store.backend", ["put", "touch", "delete", "bind_embedding"])
    spans.instrument(cache, "core.cache", ["lookup", "insert"])
    spans.instrument(engine.remote, "network.remote", ["fetch_at"])
    timed_handle = spans.wrap("core.engine.handle", engine.handle)

    def handle(query, now):
        spans.request.set(round(now / spec.TIME_STEP))
        return timed_handle(query, now)

    return handle


def run_sync(workload, counts, seed) -> dict:
    inputs = child.make_inputs(workload, counts, seed)
    n = counts.traced
    queries, expected = inputs.timed[:n], inputs.expected[:n]

    plain = child.build_sync_engine(workload, inputs, seed)
    plain_hits = plain.metrics.hits
    base = child.drive_sync(plain.handle, queries, expected, counts.warm, 1)
    plain_hits = plain.metrics.hits - plain_hits
    py_calls = count_py_calls(
        plain.handle, inputs.timed[n : n + counts.profiled], counts.warm + n
    )

    engine = child.build_sync_engine(workload, inputs, seed)
    spans = Spans()
    handle = _instrument_engine(engine, spans)
    embedder, stats = engine.cache.sine.embedder, engine.cache.stats
    memo = (embedder.hits, embedder.misses)
    churn = (stats.inserts, stats.evictions, engine.metrics.hits)
    traced = child.drive_sync(handle, queries, expected, counts.warm, 1)
    memo_hits, memo_misses = embedder.hits - memo[0], embedder.misses - memo[1]
    inserts, evictions = stats.inserts - churn[0], stats.evictions - churn[1]

    checked = _merge_checks(
        child.check_replies(inputs, base, n), child.check_replies(inputs, traced, n)
    )
    if engine.metrics.hits - churn[2] != plain_hits or traced.odd != base.odd:
        checked["problems"].append("the traced engine decided differently from the plain one")
    table = _Table(spans.summary(), n)
    checked["problems"] += table.negative_self()
    backend_ops = [f"store.backend.{op}" for op in ("put", "touch", "delete", "bind_embedding")]
    metrics = _all_metrics({
        "embedding.calls_per_req": table.per_request("embedding.embed"),
        "embedding.busy_us_per_req": table.us_per_request("embedding.embed"),
        "embedding.cache_hit_ratio": memo_hits / max(1, memo_hits + memo_misses),
        "ann.searches_per_req": table.per_request("ann.search"),
        "ann.search_us": table.mean_us("ann.search"),
        "ann.candidates_per_search": table.mean_value("ann.search"),
        "ann.index_size": len(engine.cache.sine.index),
        "ann.writes_per_req": table.per_request("ann.add", "ann.add_slot", "ann.remove"),
        "ann.add_us": table.mean_us("ann.add", "ann.add_slot"),
        "ann.remove_us": table.mean_us("ann.remove"),
        "judger.calls_per_req": table.per_request("judger.judge"),
        "judger.busy_us_per_req": table.us_per_request("judger.judge"),
        "judger.accept_ratio": table.mean_value("judger.judge"),
        "core.sine.self_us_per_req": table.us_per_request("core.sine.retrieve", field="self"),
        "core.cache.lookup_self_us": table.mean_us("core.cache.lookup", field="self"),
        "core.cache.resident_items": len(engine.cache),
        "core.cache.inserts_per_req": table.per_request("core.cache.insert"),
        "core.cache.insert_us": table.mean_us("core.cache.insert"),
        "core.cache.evictions_per_insert": evictions / max(1, inserts),
        "store.backend.ops_per_req": table.per_request(*backend_ops),
        "store.backend.busy_us_per_req": table.us_per_request(*backend_ops),
        "network.remote.fetches_per_req": table.per_request("network.remote.fetch_at"),
        "network.remote.wait_ms_per_fetch": table.mean_us("network.remote.fetch_at") / 1e3,
        "core.engine.self_us_per_req": table.us_per_request("core.engine.handle", field="self"),
        "core.engine.py_calls_per_req": py_calls,
        "core.engine.attributed_share": spans.leaf_seconds()
        / table.summary["core.engine.handle"]["total"],
        "trace.overhead_ratio": traced.latencies.mean() / base.latencies.mean(),
    })
    write_spans(spec.OUT_DIR / f"spans-{workload.name}.jsonl", {"engine": spans.rows})
    return {"metrics": metrics, "info": {"spans": len(spans.rows)}, "checked": checked}


# -- socket ----------------------------------------------------------------------
async def run_socket(workload, counts, seed) -> dict:
    inputs = child.make_inputs(workload, counts, seed)
    n = counts.traced
    plain = await child.serve_over_socket(workload, inputs, seed, counts.warm, n, 1)
    spans = Spans()
    run = await child.serve_over_socket(workload, inputs, seed, counts.warm, n, 1, spans)
    base, traced, after = plain.phase, run.phase, run.after
    delta = {
        key: after[key] - run.before[key]
        for key in ("remote_calls", "coalesced", "inserts", "evictions")
    }
    # Router first, then the workers: the split comes from the plain run,
    # where no wrapper inflates the router's share.
    cpu = base.cpu_marks[1] - base.cpu_marks[0]

    checked = _merge_checks(
        child.check_replies(inputs, base, n), child.check_replies(inputs, traced, n)
    )
    report = after["trace"]
    here = _Table(spans.summary(), n)
    there = _Table(report["summary"], n)
    checked["problems"] += here.negative_self() + there.negative_self()
    metrics = _all_metrics({
        "ann.index_size": after["resident_items"],
        "ann.writes_per_req": (delta["inserts"] + delta["evictions"]) / n,
        "core.cache.resident_items": after["resident_items"],
        "core.cache.inserts_per_req": delta["inserts"] / n,
        "core.cache.evictions_per_insert": delta["evictions"] / max(1, delta["inserts"]),
        "network.remote.fetches_per_req": there.per_request("network.remote.fetch"),
        "network.remote.wait_ms_per_fetch": there.mean_us("network.remote.fetch") / 1e3,
        # Leaves here are the codec calls; there, pool round-trips and fetches.
        "core.engine.attributed_share": (spans.leaf_seconds() + report["leaf_seconds"])
        / here.summary["serving.proc.client.serve"]["total"],
        "serving.proc.ipc_roundtrips_per_req": there.per_request(
            "serving.proc.pool.lookup", "serving.proc.pool.insert"
        ),
        "serving.proc.pool_lookup_rtt_us": there.mean_us("serving.proc.pool.lookup"),
        "serving.proc.pool_insert_rtt_us": there.mean_us("serving.proc.pool.insert"),
        "serving.proc.codec_encode_us": here.mean_us("serving.proc.codec.dumps"),
        "serving.proc.codec_decode_us": here.mean_us("serving.proc.codec.loads"),
        "serving.proc.frame_bytes_req": here.mean_value("serving.proc.codec.dumps"),
        "serving.proc.frame_bytes_reply": here.mean_value("serving.proc.codec.loads"),
        "serving.proc.front_door_us": here.us_per_request("serving.proc.client.serve")
        - there.us_per_request("serving.proc.router.serve"),
        "serving.proc.router_self_us_per_req": there.us_per_request(
            "serving.proc.router.serve", field="self"
        ),
        "serving.proc.loop_lag_ms_p99": report["loop_lag_ms_p99"],
        "serving.proc.router_cpu_ms_per_req": cpu[0] / n * 1e3,
        "serving.proc.worker_cpu_ms_per_req": sum(cpu[1:]) / n * 1e3,
        "serving.aio.coalesced_per_req": delta["coalesced"] / n,
        "serving.aio.inflight_peak": report["inflight_peak"],
        "trace.overhead_ratio": traced.latencies.mean() / base.latencies.mean(),
    })
    write_spans(
        spec.OUT_DIR / f"spans-{workload.name}.jsonl",
        {"loadgen": spans.rows, "server": report["rows"]},
    )
    info = {"spans": len(spans.rows) + len(report["rows"])}
    return {"metrics": metrics, "info": info, "checked": checked}


def run(workload, counts, seed) -> dict:
    if workload.kind == "sync":
        return run_sync(workload, counts, seed)
    return asyncio.run(run_socket(workload, counts, seed))
