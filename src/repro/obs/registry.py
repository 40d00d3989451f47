"""Labeled metrics with Prometheus text-format exposition.

A :class:`MetricsRegistry` holds three metric families, all bounded-memory
and all written and read by the one thread that serves:

* :class:`Counter` — monotone totals (requests, hits, breaker transitions);
* :class:`Gauge` — point-in-time values (cache occupancy, inflight depth,
  breaker state);
* :class:`Histogram` — fixed-bucket latency distributions that answer
  p50/p99 by linear interpolation inside the winning bucket, in O(buckets)
  memory regardless of sample count.

``registry.render()`` emits the Prometheus text exposition format
(`# HELP` / `# TYPE` + one line per label set), so a metrics file scraped
from ``python -m repro stress --metrics-out`` loads into promtool or any
Prometheus-compatible pipeline. ``registry.values()`` flattens everything
into a ``{series_name: float}`` dict for the snapshot recorder.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import deque
from typing import Iterable, Mapping

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): ~geometric 1 ms .. 60 s, chosen so the
#: paper's interesting range (2 ms cache check .. 0.5 s WAN fetch) lands in
#: distinct buckets. See DESIGN §11 for the bucket-choice discussion.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labelset(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

def _render_labels(labelset: tuple[tuple[str, str], ...]) -> str:
    if not labelset:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in labelset)
    return "{" + inner + "}"


class _Metric:
    """Shared family plumbing: name, help text, per-labelset storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def value(self, **labels) -> float:
        """Current value for one label set (0.0 when never touched)."""
        return self._values.get(_labelset(labels), 0.0)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {_escape(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labelset, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_render_labels(labelset)} {_format(value)}")
        return lines

    def values(self) -> dict[str, float]:
        """Flat ``{series: value}`` (series = ``name{labels}``)."""
        return {
            f"{self.name}{_render_labels(labelset)}": value
            for labelset, value in sorted(self._values.items())
        }


def _format(value: float) -> str:
    if value != value or math.isinf(value):  # NaN / inf guard
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter(_Metric):
    """A monotonically non-decreasing total per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels) -> None:
        """Overwrite the running total (mirror-sync from an
        :class:`~repro.core.metrics.EngineMetrics` counter, which is itself
        monotone). Refuses to move backwards."""
        key = _labelset(labels)
        if total < self._values.get(key, 0.0):
            raise ValueError(
                f"{self.name}: counter cannot decrease "
                f"({self._values[key]} -> {total})"
            )
        self._values[key] = float(total)


class Gauge(_Metric):
    """A point-in-time value per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_labelset(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(_Metric):
    """Fixed-bucket histogram answering percentiles in bounded memory.

    ``buckets`` are upper bounds (seconds); an implicit ``+Inf`` bucket
    catches the tail. :meth:`percentile` finds the target bucket from the
    cumulative counts and interpolates linearly inside it — the classic
    Prometheus ``histogram_quantile`` estimate, accurate to bucket width.
    """

    kind = "histogram"

    #: Retained exemplars per label set (recent wins; old ones roll off).
    max_exemplars = 64

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be > 0")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.buckets = tuple(bounds)
        #: labelset -> [per-bucket counts..., +Inf count]
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}
        #: labelset -> deque of (value, trace_id, bucket_index) exemplars.
        self._exemplars: dict[tuple, deque] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one sample."""
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        key = _labelset(labels)
        index = bisect_left(self.buckets, value)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
        counts[index] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def load_samples(
        self,
        samples: Iterable[float],
        total_count: int | None = None,
        total_sum: float | None = None,
        **labels,
    ) -> None:
        """Replace one label set's state from a sample list.

        Used to mirror a bounded :class:`~repro.core.metrics.LatencyStats`
        reservoir: bucket shape comes from the (possibly subsampled)
        ``samples``, scaled so ``_count``/``_sum`` report the *exact* totals
        when given.
        """
        samples = list(samples)
        key = _labelset(labels)
        counts = [0] * (len(self.buckets) + 1)
        for value in samples:
            counts[bisect_left(self.buckets, value)] += 1
        scale = 1.0
        if total_count is not None and samples and total_count != len(samples):
            scale = total_count / len(samples)
        self._counts[key] = [int(round(c * scale)) for c in counts]
        self._totals[key] = (
            total_count if total_count is not None else len(samples)
        )
        self._sums[key] = (
            total_sum if total_sum is not None else float(sum(samples))
        )

    def add_exemplar(self, value: float, trace_id: int, **labels) -> None:
        """Attach a trace id to the bucket ``value`` falls in.

        Exemplars link an aggregate to concrete traces (the SLO engine
        surfaces them when a latency objective burns). They are *not*
        rendered into the text exposition — the golden-file determinism of
        :meth:`render` would break on every run — only reachable through
        :meth:`exemplars`. Bounded per label set, recent-wins.
        """
        if value < 0:
            raise ValueError(f"exemplar values must be >= 0, got {value}")
        key = _labelset(labels)
        index = bisect_left(self.buckets, value)
        bucket = self._exemplars.get(key)
        if bucket is None:
            bucket = self._exemplars[key] = deque(maxlen=self.max_exemplars)
        bucket.append((float(value), int(trace_id), index))

    def exemplars(self, **labels) -> list[tuple[float, int, int]]:
        """Recent ``(value, trace_id, bucket_index)`` rows, oldest first."""
        return list(self._exemplars.get(_labelset(labels), ()))

    def count(self, **labels) -> int:
        return self._totals.get(_labelset(labels), 0)

    def sum(self, **labels) -> float:
        return self._sums.get(_labelset(labels), 0.0)

    def percentile(self, p: float, **labels) -> float:
        """Estimated ``p``-th percentile (0-100) for one label set.

        Linear interpolation inside the winning bucket; the +Inf bucket
        reports the last finite bound (the estimate Prometheus makes).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        key = _labelset(labels)
        counts = self._counts.get(key)
        total = self._totals.get(key, 0)
        if not counts or total == 0:
            return 0.0
        target = (p / 100.0) * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target:
                if index == len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = self.buckets[index]
                if count == 0:
                    return upper
                fraction = (target - previous) / count
                return lower + (upper - lower) * fraction
        return self.buckets[-1]

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {_escape(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labelset, counts in sorted(self._counts.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                le_labels = labelset + (("le", _format(bound)),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(le_labels)} {cumulative}"
                )
            cumulative += counts[-1]
            inf_labels = labelset + (("le", "+Inf"),)
            lines.append(
                f"{self.name}_bucket{_render_labels(inf_labels)} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(labelset)} "
                f"{_format(self._sums.get(labelset, 0.0))}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(labelset)} "
                f"{self._totals.get(labelset, 0)}"
            )
        return lines

    def values(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for labelset in sorted(self._counts):
            labels = dict(labelset)
            suffix = _render_labels(labelset)
            out[f"{self.name}_count{suffix}"] = float(self.count(**labels))
            out[f"{self.name}_sum{suffix}"] = self.sum(**labels)
            out[f"{self.name}_p50{suffix}"] = self.percentile(50, **labels)
            out[f"{self.name}_p99{suffix}"] = self.percentile(99, **labels)
        return out


class MetricsRegistry:
    """Get-or-create home for metric families + text exposition.

    ``counter`` / ``gauge`` / ``histogram`` return the existing family when
    the name is already registered (re-registration with a different kind is
    an error), so instruments in different layers can share families safely.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> "_Metric | None":
        return self._metrics.get(name)

    def __iter__(self):
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def render(self) -> str:
        """The full Prometheus text exposition (families in name order)."""
        metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def values(self) -> dict[str, float]:
        """Every series flattened to ``{series_name: float}`` (the snapshot
        recorder's sampling surface)."""
        out: dict[str, float] = {}
        for metric in self:
            out.update(metric.values())
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry(metrics={len(self)})"
