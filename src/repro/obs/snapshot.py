"""Interval sampling of a :class:`~repro.obs.registry.MetricsRegistry`.

The :class:`SnapshotRecorder` turns the registry's point-in-time ``values()``
surface into a time-series: each sample is ``(t, {series: value})``, plus any
derived probes registered with :meth:`add_probe` (hit rate, served fraction,
p99 — ratios that only make sense computed per-sample, not per-scrape).

The recorder owns no thread: it is sampled on the thread that serves. An
event loop runs :func:`sample_on_loop` as one task; a blocking loop calls
checks :meth:`due` between requests and samples only when ``interval`` has
elapsed, so tight loops stay cheap.

``to_dict()`` / ``save_json()`` produce the experiment-consumable dump:
columnar series keyed by name, one shared timestamp vector.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Callable


class SnapshotRecorder:
    """Samples a registry (and derived probes) into bounded time-series.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to sample. May be
        ``None`` when only probes are of interest.
    interval:
        Minimum seconds between samples for :meth:`due`, and the period of
        :func:`sample_on_loop`.
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
        self._times: list[float] = []
        self._rows: list[dict[str, float]] = []
        self._probes: dict[str, Callable[[], float]] = {}
        self._last_sample: float | None = None
        self.dropped = 0
        #: Total probe callbacks (or whole loop ticks) that raised. Once
        #: nonzero it is also emitted as the ``snapshot_probe_errors``
        #: series, so a dashboard can see a sick probe without scraping
        #: process state.
        self.probe_errors = 0

    # -- configuration -------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a derived series sampled alongside the registry.

        Probes compute ratios the raw counters can't express directly
        (hit rate, served fraction) or reach state outside the registry
        (breaker state, inflight depth). Exceptions inside a probe record
        ``nan`` rather than killing the sampler.
        """
        self._probes[name] = fn

    # -- sampling -------------------------------------------------------------
    def sample(self) -> dict[str, float]:
        """Take one sample unconditionally; returns the sampled row."""
        now = self._clock() - self._epoch
        row: dict[str, float] = {}
        if self.registry is not None:
            row.update(self.registry.values())
        for name, fn in self._probes.items():
            # A raising probe records nan for its own series and is counted;
            # the interval's other series points are unaffected.
            try:
                row[name] = float(fn())
            except Exception:
                row[name] = float("nan")
                self.probe_errors += 1
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

    def due(self) -> bool:
        """Has ``interval`` elapsed since the last sample (or none taken)?"""
        last = self._last_sample
        return last is None or self._clock() - self._epoch - last >= self.interval

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def times(self) -> list[float]:
        """Sample timestamps (seconds since recorder creation)."""
        return list(self._times)

    def series(self, name: str) -> list[float]:
        """One series across all samples (``nan`` where it was absent)."""
        return [row.get(name, float("nan")) for row in self._rows]

    def names(self) -> list[str]:
        """Every series name observed in any sample, sorted."""
        seen: set[str] = set()
        for row in self._rows:
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


async def sample_on_loop(
    recorder: SnapshotRecorder, tick: Callable[[], object]
) -> None:
    """Run ``tick`` every ``recorder.interval`` seconds on the running loop,
    until cancelled.

    ``tick`` is the caller's whole sample — typically "mirror the engine
    into the registry, then :meth:`SnapshotRecorder.sample`". It runs on the
    serving loop between requests, so it reads state no request is midway
    through mutating. A tick that raises costs its own interval (counted in
    ``probe_errors``), never the rest of the run's series.
    """
    while True:
        await asyncio.sleep(recorder.interval)
        try:
            tick()
        except Exception:
            recorder.probe_errors += 1
