"""The ``stress``, ``slo`` and local ``replicate`` CLI bodies, entered
through ``main``.

Every token the CI ``cli-smoke`` job greps for is asserted here on a small
run of each tier — sync, asyncio, proc (two real worker processes) and
``--connect`` against a ``ProcServer`` started inside the test — so a
change to the one stress body is caught by tier-1, not only by CI.
"""

import asyncio
import json
import re
import threading

import pytest

from repro.cli import _metrics_rig, main
from repro.core import Query
from repro.factory import build_asteria_engine, build_proc_engine, build_remote
from repro.serving.proc.server import ProcServer

SMALL = ["--queries", "120", "--workers", "2", "--rate", "2000", "--seed", "0"]


def stress(capsys, *flags):
    code = main(["stress", *flags, *SMALL])
    return code, capsys.readouterr().out


def field(output, name):
    return float(re.search(rf"{name}=([0-9.]+)", output).group(1))


@pytest.mark.parametrize("engine", ["sync", "async", "proc"])
def test_every_tier_reports_through_the_one_body(capsys, engine):
    code, output = stress(capsys, "--engine", engine)
    assert code == 0
    assert output.startswith(f"engine={engine} ")
    assert "requests=120" in output
    # (An open loop may launch everything before the first miss lands, so
    # only the closed loop is sure to see a hit.)
    assert 0.0 <= field(output, "hit_rate") < 1.0
    assert field(output, "hits") + field(output, "misses") == 120
    assert field(output, "throughput") > 0
    assert "stopped early by signal" not in output
    # Open-loop tiers also say what backpressure and deadlines did.
    assert ("overloaded=0" in output) == (engine in ("async", "proc"))


def test_the_default_tier_is_async_and_thread_is_gone(capsys):
    code, output = main(["stress", "--queries", "40", "--rate", "2000", "--seed", "0"]), (
        capsys.readouterr().out
    )
    assert code == 0 and output.startswith("engine=async rate=2000/s max_inflight=256 ")
    for gone in ("thread", "threads"):
        with pytest.raises(SystemExit) as exit_:
            main(["stress", "--engine", gone])
        assert exit_.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error and repr(gone) in error
    with pytest.raises(SystemExit) as exit_:
        main(["stress", "--shards", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


def test_max_inflight_rejects_what_the_admission_queue_cannot_hold(capsys):
    # One slot at 2 000 arrivals/s: a miss holds it for ~8 ms of wall clock.
    code, output = stress(capsys, "--max-inflight", "1")
    assert code == 0 and "max_inflight=1 " in output
    assert field(output, "overloaded") > 0


def test_deadline_turns_slow_misses_into_deadline_exceeded(capsys):
    code, output = stress(capsys, "--deadline", "0.001")
    assert code == 0
    assert field(output, "overloaded") == 0
    assert field(output, "deadline_exceeded") > 0


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_chaos_prints_served_fraction(capsys, engine):
    code, output = stress(
        capsys, "--engine", engine, "--chaos", "--blackout", "0.3:0.6",
        "--io-scale", "0.002",
    )
    assert code == 0
    assert 0.0 < field(output, "served_fraction") < 1.0
    assert "failed=" in output and "breaker_open_rejects=" in output


def test_chaos_workers_kills_and_respawns_a_worker(capsys):
    code, output = main(
        ["stress", "--engine", "proc", "--workers", "2", "--queries", "150",
         "--rate", "400", "--seed", "0", "--chaos-workers", "--kill-at", "40"]
    ), capsys.readouterr().out
    assert code == 0
    assert "worker_kills=1" in output
    assert "worker_restarts=1" in output
    assert field(output, "served_fraction") >= 0.9


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_persist_starts_cold_then_warm(capsys, tmp_path, engine):
    home = str(tmp_path / "home")
    code, cold = stress(capsys, "--engine", engine, "--persist", home)
    assert code == 0 and "cold start" in cold and "checkpointed" in cold
    code, warm = stress(capsys, "--engine", engine, "--persist", home)
    assert code == 0 and "warm start" in warm
    assert field(warm, "hit_rate") >= field(cold, "hit_rate")


def test_persist_refuses_another_worker_count_on_the_proc_tier(capsys, tmp_path):
    home = tmp_path / "home"
    build_proc_engine(build_remote(), workers=3, persist_dir=home, launch=False)
    with pytest.raises(ValueError, match="holds 3 shard stores but"):
        main(["stress", "--engine", "proc", "--persist", str(home), *SMALL])
    # A one-cache tier refuses it too, naming the flags that read it.
    with pytest.raises(ValueError, match="--engine proc --workers 3"):
        main(["stress", "--engine", "async", "--persist", str(home), *SMALL])


@pytest.mark.parametrize("engine", ["sync", "proc"])
def test_trace_metrics_and_series_artefacts_parse(capsys, tmp_path, engine):
    trace, prom, series = (tmp_path / name for name in ("t.json", "m.prom", "s.json"))
    code, output = stress(
        capsys, "--engine", engine, "--trace-out", str(trace),
        "--metrics-out", str(prom), "--series-out", str(series),
    )
    assert code == 0
    spans = [e for e in json.loads(trace.read_text())["traceEvents"] if e.get("ph") == "X"]
    assert {"request", "embed", "ann_search"} <= {span["name"] for span in spans}
    assert "repro_lookups_total" in prom.read_text()
    dump = json.loads(series.read_text())
    assert dump["samples"] >= 1
    assert f'served_fraction{{engine="{engine}"}}' in dump["series"]
    # Every row's registry series are as of that row: the first carries the
    # lookup counters, the last (taken at the end) reads the final count.
    hits = dump["series"][f'repro_lookups_total{{engine="{engine}",status="hit"}}']
    assert hits[0] is not None and hits[-1] == field(output, "hits")
    assert not [name for name in dump["series"] if name.startswith("sync{")]
    # ... and the series is what `repro slo` reads (cold-start p99 ~0.55 s).
    assert main(["slo", "--series", str(series), "--engine", engine,
                 "--p99-threshold", "1.0"]) == 0


def test_a_series_tick_samples_the_engine_as_of_now():
    engine = build_asteria_engine(build_remote(seed=0), seed=0)
    _, _, (recorder, tick) = _metrics_rig(engine, "sync", series_interval=0.1)
    hit = 'repro_lookups_total{engine="sync",status="hit"}'
    for now in range(60):
        rank = now % 20
        engine.handle(Query(f"series fact number {rank}", fact_id=f"F{rank}"), float(now))
        if now % 30 == 29:
            tick()
            assert recorder.series(hit)[-1] == engine.metrics.hits
    assert len(recorder) == 2 and engine.metrics.hits > 0
    assert not [name for name in recorder.names() if name.startswith("sync{")]


@pytest.fixture
def served_port():
    """A ProcServer over two workers, serving on its own loop in a thread."""
    engine = build_proc_engine(build_remote(seed=0), seed=0, workers=2)
    server = ProcServer(engine, port=0)
    ready = threading.Event()
    loops = []

    async def serve():
        await server.start()
        loops.append(asyncio.get_running_loop())
        ready.set()
        await server.run(install_signals=False)

    thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
    thread.start()
    assert ready.wait(timeout=60)
    try:
        yield server.port
    finally:
        loops[0].call_soon_threadsafe(server.request_stop)
        thread.join(timeout=60)
        assert not thread.is_alive()


def test_connect_drives_a_running_server(capsys, served_port):
    code, output = stress(capsys, "--connect", f"127.0.0.1:{served_port}")
    assert code == 0
    assert output.startswith(f"engine=socket target=127.0.0.1:{served_port} requests=120")
    assert output.count("served_fraction=") == 1  # cli-smoke cuts this one value
    assert "served_fraction=1.0000" in output
    assert "outcomes={'ok': 120}" in output
    assert "server: workers=2 requests=120" in output


def test_connect_rejects_a_malformed_target():
    with pytest.raises(SystemExit, match="HOST:PORT"):
        main(["stress", "--connect", "localhost:http", *SMALL])


def test_replicate_local_converges(capsys):
    assert main(["replicate", "--queries", "60"]) == 0
    output = capsys.readouterr().out
    assert output.startswith("replicate (local sim): 60 queries/region ")
    assert "final: agreement=1.000 " in output


class TestSloExitCodes:
    """0 quiet, 1 firing, 2 unusable input — from a hand-written series."""

    @staticmethod
    def series(tmp_path, p99):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({
            "interval": 1.0,
            "samples": 4,
            "t": [0.0, 1.0, 2.0, 3.0],
            "series": {
                'p99_latency{engine="proc"}': [p99] * 4,
                'served_fraction{engine="proc"}': [1.0] * 4,
                'stale_fraction{engine="proc"}': [0.0] * 4,
            },
        }))
        return str(path)

    def test_quiet_series_exits_zero(self, capsys, tmp_path):
        assert main(["slo", "--series", self.series(tmp_path, p99=0.2)]) == 0
        assert "FIRING" not in capsys.readouterr().out

    def test_burning_series_exits_one(self, capsys, tmp_path):
        assert main(["slo", "--series", self.series(tmp_path, p99=2.0)]) == 1
        assert "FIRING: p99_latency" in capsys.readouterr().out

    def test_unusable_input_exits_two(self, capsys, tmp_path):
        assert main(["slo", "--series", str(tmp_path / "missing.json")]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"t": [], "series": {}}))
        assert main(["slo", "--series", str(empty)]) == 2
        # Recorded under another engine label: no series to evaluate.
        assert main(["slo", "--series", self.series(tmp_path, 0.2),
                     "--engine", "sync"]) == 2
