"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SLOSpec` names one snapshot series (the
:class:`~repro.obs.snapshot.SnapshotRecorder`'s columnar dump is the
evaluation surface), a per-sample goodness test (``value <= threshold`` or
``value >= threshold``), and an objective ``target`` — the fraction of
samples that must be good. Evaluation follows the multi-window,
multi-burn-rate alerting recipe from the Google SRE workbook:

* the **burn rate** over a window is ``bad_fraction / (1 - target)`` — 1.0
  means the error budget is being consumed exactly at the sustainable pace,
  14.4 means a 30-day budget would be gone in ~2 days;
* an SLO **fires** only when *both* the fast window (default 5 minutes —
  "is it happening now?") and the slow window (default 1 hour — "has it
  been happening long enough to matter?") exceed their thresholds, which
  is what keeps one anomalous sample from paging.

Runs shorter than a window simply evaluate over the samples that exist —
the windows clamp to the series, so a 60-second stress run still gets a
meaningful answer.

:class:`SLOEngine` binds specs to a recorder, publishes
``repro_slo_burn_rate{slo,window}`` / ``repro_slo_firing{slo}`` gauges into
an optional registry, pulls exemplar trace ids off an optional latency
histogram (so a burning latency SLO links to its slowest recent traces),
and renders the ``health`` op / ``python -m repro slo`` summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default burn-rate thresholds (fast / slow), from the SRE workbook's
#: 14.4x-over-1h + 6x-over-6h page ladder, compressed to the two windows a
#: stress run can actually fill.
FAST_BURN = 14.4
SLOW_BURN = 6.0


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over a snapshot series.

    ``op`` is the per-sample goodness direction: ``"<="`` means samples at
    or under ``threshold`` are good (latency style), ``">="`` means samples
    at or over it are good (availability style).
    """

    name: str
    series: str
    threshold: float
    op: str = "<="
    target: float = 0.99
    fast_window: float = 300.0
    slow_window: float = 3600.0
    fast_burn: float = FAST_BURN
    slow_burn: float = SLOW_BURN
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"op must be '<=' or '>=', got {self.op!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got "
                f"{self.fast_window}/{self.slow_window}"
            )

    def good(self, value: float) -> bool:
        """Per-sample goodness (nan samples are skipped by the evaluator)."""
        if self.op == "<=":
            return value <= self.threshold
        return value >= self.threshold


@dataclass
class SLOStatus:
    """One spec's evaluation result (the ``health`` op / CLI row)."""

    name: str
    series: str
    firing: bool
    fast_burn_rate: float
    slow_burn_rate: float
    fast_samples: int
    slow_samples: int
    last_value: float | None
    description: str = ""
    exemplar_trace_ids: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        row = {
            "name": self.name,
            "series": self.series,
            "firing": self.firing,
            "fast_burn_rate": round(self.fast_burn_rate, 4),
            "slow_burn_rate": round(self.slow_burn_rate, 4),
            "fast_samples": self.fast_samples,
            "slow_samples": self.slow_samples,
            "last_value": self.last_value,
        }
        if self.description:
            row["description"] = self.description
        if self.exemplar_trace_ids:
            row["exemplar_trace_ids"] = self.exemplar_trace_ids
        return row


def _window_burn(
    times: list[float], values: list[float], window: float, spec: SLOSpec
) -> tuple[float, int]:
    """Burn rate and sample count over the trailing ``window`` seconds."""
    if not times:
        return 0.0, 0
    cutoff = times[-1] - window
    good = bad = 0
    for t, value in zip(times, values):
        if t < cutoff or value is None or value != value:  # skip nan gaps
            continue
        if spec.good(value):
            good += 1
        else:
            bad += 1
    total = good + bad
    if total == 0:
        return 0.0, 0
    return (bad / total) / (1.0 - spec.target), total


def evaluate_slo(spec: SLOSpec, snapshot: dict) -> SLOStatus:
    """Evaluate one spec against a :meth:`SnapshotRecorder.to_dict` dump."""
    times = snapshot.get("t", [])
    values = snapshot.get("series", {}).get(spec.series, [])
    fast_rate, fast_n = _window_burn(times, values, spec.fast_window, spec)
    slow_rate, slow_n = _window_burn(times, values, spec.slow_window, spec)
    last = None
    for value in reversed(values):
        if value is not None and value == value:
            last = value
            break
    return SLOStatus(
        name=spec.name,
        series=spec.series,
        # Both windows must burn: the fast one proves it is happening now,
        # the slow one proves it is not a blip. Zero samples never fire.
        firing=(
            fast_n > 0
            and slow_n > 0
            and fast_rate >= spec.fast_burn
            and slow_rate >= spec.slow_burn
        ),
        fast_burn_rate=fast_rate,
        slow_burn_rate=slow_rate,
        fast_samples=fast_n,
        slow_samples=slow_n,
        last_value=last,
        description=spec.description,
    )


def evaluate_slos(specs, snapshot: dict) -> list[SLOStatus]:
    """Evaluate every spec against one snapshot dump."""
    return [evaluate_slo(spec, snapshot) for spec in specs]


def default_slos(engine: str = "proc", p99_threshold: float = 0.5) -> list[SLOSpec]:
    """The stock SLO set over the probes ``EngineInstrument.install_probes``
    registers for ``engine``: p99 latency, served fraction, and staleness
    (the fraction of served answers that were stale hits)."""
    return [
        SLOSpec(
            name="p99_latency",
            series=f'p99_latency{{engine="{engine}"}}',
            threshold=p99_threshold,
            op="<=",
            target=0.99,
            description=f"p99 request latency stays under {p99_threshold}s",
        ),
        SLOSpec(
            name="served_fraction",
            series=f'served_fraction{{engine="{engine}"}}',
            threshold=0.99,
            op=">=",
            target=0.99,
            description="at least 99% of finished requests get a payload",
        ),
        SLOSpec(
            name="stale_fraction",
            series=f'stale_fraction{{engine="{engine}"}}',
            threshold=0.2,
            op="<=",
            target=0.95,
            description="stale hits stay under 20% of served answers",
        ),
    ]


class SLOEngine:
    """Binds SLO specs to a recorder, a registry, and exemplar sources.

    Parameters
    ----------
    specs:
        The :class:`SLOSpec` list to evaluate.
    recorder:
        Optional :class:`~repro.obs.snapshot.SnapshotRecorder`;
        :meth:`evaluate` reads its ``to_dict()`` when no explicit snapshot
        is passed.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; every
        evaluation publishes ``repro_slo_burn_rate{slo,window}`` and
        ``repro_slo_firing{slo}`` gauges.
    latency_histogram / latency_labels:
        Optional :class:`~repro.obs.registry.Histogram` (+ its label set)
        holding exemplars; latency-style (``op="<="``) statuses pick up the
        trace ids of the slowest recent exemplars so a burn links straight
        to offending traces.
    """

    def __init__(
        self,
        specs,
        recorder=None,
        registry=None,
        latency_histogram=None,
        latency_labels: dict | None = None,
    ) -> None:
        self.specs = list(specs)
        self.recorder = recorder
        self.registry = registry
        self.latency_histogram = latency_histogram
        self.latency_labels = dict(latency_labels or {})
        self._burn_gauge = None
        self._firing_gauge = None
        if registry is not None:
            self._burn_gauge = registry.gauge(
                "repro_slo_burn_rate",
                "Error-budget burn rate per SLO and window "
                "(1.0 = sustainable pace).",
            )
            self._firing_gauge = registry.gauge(
                "repro_slo_firing",
                "1 when both burn-rate windows exceed their thresholds.",
            )

    def _exemplars_for(self, spec: SLOSpec, limit: int = 3) -> list[int]:
        if self.latency_histogram is None or spec.op != "<=":
            return []
        rows = self.latency_histogram.exemplars(**self.latency_labels)
        slowest = sorted(rows, key=lambda row: row[0], reverse=True)[:limit]
        return [trace_id for _, trace_id, _ in slowest]

    def evaluate(self, snapshot: dict | None = None) -> list[SLOStatus]:
        """Evaluate every spec; publishes gauges and attaches exemplars."""
        if snapshot is None:
            if self.recorder is None:
                raise ValueError("SLOEngine needs a recorder or an explicit snapshot")
            snapshot = self.recorder.to_dict()
        statuses = evaluate_slos(self.specs, snapshot)
        for spec, status in zip(self.specs, statuses):
            if status.firing:
                status.exemplar_trace_ids = self._exemplars_for(spec)
            if self._burn_gauge is not None:
                self._burn_gauge.set(
                    status.fast_burn_rate, slo=spec.name, window="fast"
                )
                self._burn_gauge.set(
                    status.slow_burn_rate, slo=spec.name, window="slow"
                )
                self._firing_gauge.set(float(status.firing), slo=spec.name)
        return statuses

    def health_summary(self, snapshot: dict | None = None) -> dict:
        """The ``health`` op payload: compact per-SLO rows + firing names."""
        statuses = self.evaluate(snapshot)
        return {
            "firing": [status.name for status in statuses if status.firing],
            "slos": [status.as_dict() for status in statuses],
        }

    def __repr__(self) -> str:
        return f"SLOEngine(specs={[spec.name for spec in self.specs]})"


def format_statuses(statuses) -> str:
    """Fixed-width text table for the ``python -m repro slo`` CLI."""
    lines = [
        f"{'slo':<18} {'firing':<7} {'fast_burn':>10} {'slow_burn':>10} "
        f"{'samples':>8} {'last':>10}"
    ]
    for status in statuses:
        last = "-" if status.last_value is None else f"{status.last_value:.4g}"
        lines.append(
            f"{status.name:<18} {str(status.firing).lower():<7} "
            f"{status.fast_burn_rate:>10.2f} {status.slow_burn_rate:>10.2f} "
            f"{status.fast_samples:>8d} {last:>10}"
        )
        if status.exemplar_trace_ids:
            lines.append(f"    exemplar traces: {status.exemplar_trace_ids}")
    return "\n".join(lines)
