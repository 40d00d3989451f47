"""Each serving process runs on one thread, so ``src/`` holds no lock.

A stress run with ``--series-out`` on every tier may start no thread but
asyncio's own default-executor threads, which only reap, spawn or join
worker processes (plus the one that shuts that executor down). And no
module under ``src/`` constructs a thread or a threading lock.
"""

import re
import threading
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a second thread of execution, or synchronisation against one, is spelt as.
FORBIDDEN = re.compile(r"\bthreading\.(R?Lock|Thread)\b|\bRLock\b|\bfrom threading import\b")


def _asyncio_executor(thread: threading.Thread) -> bool:
    return thread.name.startswith("asyncio_") or thread.name.endswith("(_do_shutdown)")


@pytest.mark.parametrize("engine", ["sync", "async", "proc"])
def test_a_stress_run_starts_no_thread_of_its_own(capsys, tmp_path, monkeypatch, engine):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    series = tmp_path / "series.json"
    code = main(
        ["stress", "--engine", engine, "--series-out", str(series),
         "--queries", "120", "--workers", "2", "--rate", "2000", "--seed", "0"]
    )
    assert code == 0 and "series written" in capsys.readouterr().out
    assert [t.name for t in started if not _asyncio_executor(t)] == []


def test_no_module_under_src_builds_a_thread_or_a_lock():
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert offenders == []


def test_the_scan_sees_what_it_forbids():
    for spelt in ("threading.Lock()", "threading.RLock()", "threading.Thread(target=f)",
                  "from threading import Lock", "lock = RLock()"):
        assert FORBIDDEN.search(spelt), spelt
    for allowed in ("threading.Event()", "threading.get_ident()", "asyncio.Lock()"):
        assert not FORBIDDEN.search(allowed), allowed
