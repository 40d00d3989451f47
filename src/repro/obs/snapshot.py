"""Interval sampling of a :class:`~repro.obs.registry.MetricsRegistry`.

The :class:`SnapshotRecorder` turns the registry's point-in-time ``values()``
surface into a time-series: each sample is ``(t, {series: value})``, plus any
derived probes registered with :meth:`add_probe` (hit rate, served fraction,
p99 — ratios that only make sense computed per-sample, not per-scrape).

Two driving styles:

* **pull** — call :meth:`maybe_sample` from the serving loop; it samples only
  when ``interval`` has elapsed, so tight loops stay cheap;
* **push** — :meth:`start` spins a daemon thread that samples on the interval
  until :meth:`stop`, for wall-clock runs (``stress --series-out``).

``to_dict()`` / ``save_json()`` produce the experiment-consumable dump:
columnar series keyed by name, one shared timestamp vector.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Mapping


class SnapshotRecorder:
    """Samples a registry (and derived probes) into bounded time-series.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to sample. May be
        ``None`` when only probes are of interest.
    interval:
        Minimum seconds between samples for :meth:`maybe_sample` and the
        background thread.
    max_samples:
        Retention bound; the oldest samples are dropped beyond it so a soak
        run cannot grow memory without bound.
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(
        self,
        registry=None,
        interval: float = 0.5,
        max_samples: int = 10_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.registry = registry
        self.interval = interval
        self.max_samples = max_samples
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._times: list[float] = []
        self._rows: list[dict[str, float]] = []
        self._probes: dict[str, Callable[[], float]] = {}
        self._last_sample: float | None = None
        self.dropped = 0
        #: Total probe callbacks (or whole samples, from the background
        #: thread) that raised. Once nonzero it is also emitted as the
        #: ``snapshot_probe_errors`` series, so a dashboard can see a sick
        #: probe without scraping process state.
        self.probe_errors = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- configuration -------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a derived series sampled alongside the registry.

        Probes compute ratios the raw counters can't express directly
        (hit rate, served fraction) or reach state outside the registry
        (breaker state, inflight depth). Exceptions inside a probe record
        ``nan`` rather than killing the sampler.
        """
        with self._lock:
            self._probes[name] = fn

    # -- sampling -------------------------------------------------------------
    def sample(self) -> dict[str, float]:
        """Take one sample unconditionally; returns the sampled row."""
        now = self._clock() - self._epoch
        row: dict[str, float] = {}
        if self.registry is not None:
            row.update(self.registry.values())
        with self._lock:
            probes = list(self._probes.items())
        errors = 0
        for name, fn in probes:
            # A raising probe records nan for its own series and is counted;
            # the interval's other series points are unaffected.
            try:
                row[name] = float(fn())
            except Exception:
                row[name] = float("nan")
                errors += 1
        with self._lock:
            if errors:
                self.probe_errors += errors
            if self.probe_errors:
                # Emitted only once a probe has ever failed: healthy runs
                # keep their exact pre-existing series set, while a sick
                # probe shows up as a series without scraping process state.
                row["snapshot_probe_errors"] = float(self.probe_errors)
            self._times.append(now)
            self._rows.append(row)
            if len(self._times) > self.max_samples:
                overflow = len(self._times) - self.max_samples
                del self._times[:overflow]
                del self._rows[:overflow]
                self.dropped += overflow
            self._last_sample = now
        return row

    def maybe_sample(self) -> dict[str, float] | None:
        """Sample only if ``interval`` has elapsed since the last sample."""
        now = self._clock() - self._epoch
        with self._lock:
            due = self._last_sample is None or (
                now - self._last_sample >= self.interval
            )
        if not due:
            return None
        return self.sample()

    # -- background driving ---------------------------------------------------
    def start(self) -> None:
        """Start a daemon thread sampling every ``interval`` seconds."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("recorder already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-snapshot", daemon=True
        )
        self._thread.start()

    def stop(self, final_sample: bool = True) -> None:
        """Stop the background thread (taking one last sample by default)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if final_sample:
            self.sample()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            # The recorder thread must outlive any single bad sample: a
            # registry mid-mutation or a probe raising outside the per-probe
            # guard costs one interval, never the rest of the run's series.
            try:
                self.sample()
            except Exception:
                with self._lock:
                    self.probe_errors += 1

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._times)

    def times(self) -> list[float]:
        """Sample timestamps (seconds since recorder creation)."""
        with self._lock:
            return list(self._times)

    def series(self, name: str) -> list[float]:
        """One series across all samples (``nan`` where it was absent)."""
        with self._lock:
            rows = list(self._rows)
        return [row.get(name, float("nan")) for row in rows]

    def names(self) -> list[str]:
        """Every series name observed in any sample, sorted."""
        with self._lock:
            rows = list(self._rows)
        seen: set[str] = set()
        for row in rows:
            seen.update(row)
        return sorted(seen)

    def to_dict(self) -> dict:
        """Columnar dump: ``{"interval", "t": [...], "series": {name: [...]}}``."""
        names = self.names()
        return {
            "interval": self.interval,
            "samples": len(self),
            "dropped": self.dropped,
            "probe_errors": self.probe_errors,
            "t": [round(t, 6) for t in self.times()],
            "series": {name: self.series(name) for name in names},
        }

    def save_json(self, path: "str | Path") -> int:
        """Write :meth:`to_dict` as JSON; returns the sample count."""
        payload = self.to_dict()
        # nan is not valid JSON; serialise as null.
        text = json.dumps(payload, allow_nan=True)
        text = text.replace("NaN", "null")
        Path(path).write_text(text)
        return payload["samples"]

    def __repr__(self) -> str:
        return (
            f"SnapshotRecorder(samples={len(self)}, interval={self.interval}, "
            f"probes={len(self._probes)})"
        )


def _isnan(value: float) -> bool:
    return value != value


def summarize_series(values: Mapping[str, list[float]]) -> dict[str, dict]:
    """Min/max/last per series, skipping nan gaps (experiment convenience)."""
    out: dict[str, dict] = {}
    for name, series in values.items():
        clean = [v for v in series if not _isnan(v)]
        if not clean:
            out[name] = {"min": None, "max": None, "last": None}
            continue
        out[name] = {"min": min(clean), "max": max(clean), "last": clean[-1]}
    return out
