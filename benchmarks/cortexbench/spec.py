"""What the benchmark runs and what it reports: workloads, metrics, pinning.

``BENCHMARK.json`` at the repository root names the same workloads and
metrics and holds the bounds; ``test_cortexbench.py`` checks the two agree.
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys
from dataclasses import dataclass

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent.parent
SRC = ROOT / "src"
OUT_DIR = PACKAGE_DIR / "out"

#: Every child runs with these, whatever the caller's environment holds.
#: Unpinned, OpenBLAS spins a second thread on a matrix product far too
#: small to use it (bigindex CPU per request 3.0 ms against 1.6 ms pinned),
#: and per-process hash randomisation moves dict and set layouts, and with
#: them the timings, from one run to the next.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Simulated seconds between consecutive requests (``now = index * step``).
TIME_STEP = 0.01
#: Requests per measurement window: 10 samples lie beyond a window's p99.
WINDOW = 1000
#: The issue sized every workload for a 30 s timed phase; ``--seconds``
#: scales all counts by ``seconds / 30``, rounded down to whole windows.
SIZED_FOR_SECONDS = 30
#: Socket workloads spread their callers over at most this many connections.
MAX_CONNECTIONS = 2
#: Real seconds slept per simulated second of remote latency: a miss waits
#: 15-25 ms, as a cross-region fetch would.
IO_PAUSE_SCALE = 0.05
SOCKET_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sync": one caller on engine.handle; "socket": ProcClient callers
    facts: int
    zipf_s: float
    capacity: int
    warm: int  # requests at the sized-for scale
    timed: int
    callers: int = 1  # requests in flight; each waits for its reply
    prefill: bool = False  # fill the cache to capacity before warm-up


WORKLOADS = (
    Workload(
        "para_sync",
        "Fig. 7 shape, read-mostly (hit ~0.77), one caller, nothing waits: "
        "all time is the core/embedding/ann/judger hot path",
        "sync", facts=2_000, zipf_s=0.99, capacity=500, warm=5_000, timed=100_000,
    ),
    Workload(
        "para_socket",
        "same traffic as para_sync through ProcServer and 2 workers, so the "
        "difference is serving.proc, the router and the wire; p99 is the miss wait",
        "socket", facts=2_000, zipf_s=0.99, capacity=500, warm=2_500, timed=24_000,
        callers=8,
    ),
    Workload(
        "churn_socket",
        "20 000 facts, Zipf 0.8, hit ~0.3: two of three requests pay remote "
        "wait, a second IPC exchange, admit, evict and index writes",
        "socket", facts=20_000, zipf_s=0.8, capacity=1_000, warm=4_000, timed=28_000,
        callers=16,
    ),
    Workload(
        "bigindex_sync",
        "8 192 resident items, 16x para_sync: ann scans and per-resident-item "
        "costs in core.cache dominate, Python overhead per request matters little",
        "sync", facts=16_384, zipf_s=0.99, capacity=8_192, warm=0, timed=20_000,
        prefill=True,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: (name, unit, better). Bounds live in BENCHMARK.json.
END_TO_END = (
    ("rps", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("hit_rate", "ratio", "higher"),
    ("remote_calls_per_req", "ratio", "lower"),
    ("precision", "ratio", "higher"),
    ("served_fraction", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better). A layer is a module of ``repro``. On a workload
#: where a layer does not run, or runs where the benchmark cannot reach it
#: (inside a worker process), its metrics read 0; the README says which.
PER_LAYER = (
    ("embedding.calls_per_req", "count", "lower"),
    ("embedding.busy_us_per_req", "us", "lower"),
    ("embedding.cache_hit_ratio", "ratio", "higher"),
    ("ann.searches_per_req", "count", "lower"),
    ("ann.search_us", "us", "lower"),
    ("ann.candidates_per_search", "count", "lower"),
    ("ann.index_size", "count", "lower"),
    ("ann.writes_per_req", "count", "lower"),
    ("ann.add_us", "us", "lower"),
    ("ann.remove_us", "us", "lower"),
    ("judger.calls_per_req", "count", "lower"),
    ("judger.busy_us_per_req", "us", "lower"),
    ("judger.accept_ratio", "ratio", "higher"),
    ("core.sine.self_us_per_req", "us", "lower"),
    ("core.cache.lookup_self_us", "us", "lower"),
    ("core.cache.resident_items", "count", "lower"),
    ("core.cache.inserts_per_req", "count", "lower"),
    ("core.cache.insert_us", "us", "lower"),
    ("core.cache.evictions_per_insert", "ratio", "lower"),
    ("store.backend.ops_per_req", "count", "lower"),
    ("store.backend.busy_us_per_req", "us", "lower"),
    ("network.remote.fetches_per_req", "count", "lower"),
    ("network.remote.wait_ms_per_fetch", "ms", "lower"),
    ("core.engine.self_us_per_req", "us", "lower"),
    ("core.engine.py_calls_per_req", "count", "lower"),
    ("core.engine.attributed_share", "ratio", "higher"),
    ("serving.proc.ipc_roundtrips_per_req", "count", "lower"),
    ("serving.proc.pool_lookup_rtt_us", "us", "lower"),
    ("serving.proc.pool_insert_rtt_us", "us", "lower"),
    ("serving.proc.codec_encode_us", "us", "lower"),
    ("serving.proc.codec_decode_us", "us", "lower"),
    ("serving.proc.frame_bytes_req", "B", "lower"),
    ("serving.proc.frame_bytes_reply", "B", "lower"),
    ("serving.proc.front_door_us", "us", "lower"),
    ("serving.proc.router_self_us_per_req", "us", "lower"),
    ("serving.proc.loop_lag_ms_p99", "ms", "lower"),
    ("serving.proc.router_cpu_ms_per_req", "ms", "lower"),
    ("serving.proc.worker_cpu_ms_per_req", "ms", "lower"),
    ("serving.aio.coalesced_per_req", "count", "higher"),
    ("serving.aio.inflight_peak", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


@dataclass(frozen=True)
class Counts:
    warm: int
    timed: int
    windows: int
    traced: int  # requests of the timed phase the traced pass replays
    profiled: int  # requests counted under sys.setprofile after those


def counts_for(workload: Workload, seconds: float, smoke: bool) -> Counts:
    """Request counts for a run of about ``seconds`` seconds.

    Counts, never durations, bound a run: the same arguments give the same
    requests, so hit rates and call counts repeat. ``smoke`` divides by 20
    and lets windows shrink with it.
    """
    scale = seconds / SIZED_FOR_SECONDS / (20 if smoke else 1)
    window = WINDOW // 20 if smoke else WINDOW
    windows = max(1, int(workload.timed * scale) // window)
    timed = windows * window
    traced = max(timed // 10, min(timed, window))
    return Counts(
        warm=int(workload.warm * scale),
        timed=timed,
        windows=windows,
        traced=traced,
        profiled=min(window, timed - traced),
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def host_fingerprint() -> dict:
    """What a result must share with another to be compared with it."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "platform": sys.platform,
    }
