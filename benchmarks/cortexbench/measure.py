"""Turning raw window samples into metrics, and reading a process's cost.

**The quiet-window estimator.** The timed phase is cut into equal-count
windows. On a shared host a neighbour's burst, a scheduler migration or a
page-cache flush only ever *slows* a window; nothing makes one faster than
the program is. A whole-run mean therefore moves 15-30 % between runs of the
same code while the best windows of those runs move 3-5 %. Timing metrics
are taken from the quiet end of the window distribution: throughput is the
90th-percentile window, latencies and CPU per request the 10th-percentile
window. Percentiles, not the extreme window, so one lucky sample does not
set the number. Whole-run means are kept in the result as information.
"""

from __future__ import annotations

import os

import numpy as np

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used (children not included).

    Each thread's ``schedstat`` counts its on-CPU nanoseconds; ``stat``
    counts 10 ms ticks, which is 1 % of a one-second window, so it is only
    the fallback (no schedstats in the kernel, or a thread exiting mid-read).
    """
    try:
        total = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except (FileNotFoundError, IndexError):
        pass
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name (field 2) may hold spaces; fields resume after ')'.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def peak_rss_mib(pid: int) -> float:
    """The process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def window_metrics(
    latencies: np.ndarray, wall_marks: np.ndarray, cpu_marks: np.ndarray
) -> tuple[dict[str, float], dict[str, float]]:
    """Timing metrics from one timed phase.

    ``latencies`` holds per-request seconds in completion order;
    ``wall_marks`` and ``cpu_marks`` hold the wall clock and the system
    under test's CPU seconds at each of the ``windows + 1`` window edges.
    Returns the named metrics (quiet-window estimates) and the whole-run
    figures that are reported as information only.
    """
    windows = len(wall_marks) - 1
    size = len(latencies) // windows
    per_window = latencies[: windows * size].reshape(windows, size) * 1e3
    series = {
        "rps": size / np.diff(wall_marks),
        "p50_ms": np.median(per_window, axis=1),
        "p99_ms": np.percentile(per_window, 99, axis=1),
        "cpu_ms_per_req": np.diff(cpu_marks) / size * 1e3,
    }
    metrics = {
        name: float(np.percentile(values, 90 if name == "rps" else 10))
        for name, values in series.items()
    }
    total_wall = float(wall_marks[-1] - wall_marks[0])
    info = {
        "window_requests": size,
        "wall_s": total_wall,
        "mean_rps": len(latencies) / total_wall,
        "whole_p50_ms": float(np.median(latencies) * 1e3),
        "whole_p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "mean_cpu_ms_per_req": float((cpu_marks[-1] - cpu_marks[0]) / len(latencies) * 1e3),
        "windows": {name: [round(float(v), 5) for v in values] for name, values in series.items()},
    }
    return metrics, info
