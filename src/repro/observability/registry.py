"""Live metrics registry: counter/gauge/histogram families with labels.

The registry is the single store behind every instrumentation point in the
serving stack.  It is deliberately tiny and stdlib-only -- the daemon's
``GET /metrics`` renders it in the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` comment lines followed by one sample line per
labelled child), so any Prometheus-compatible scraper can consume it
without the ``prometheus_client`` dependency.

Design notes:

* A *family* is one metric name plus a fixed tuple of label names; its
  *children* are the concrete (label-values -> series) instances.  Families
  are get-or-create through :class:`MetricsRegistry` so independent
  instrumentation points share series by name without passing handles
  around; re-declaring a name with a different kind or label set is an
  error rather than a silent fork.
* Sessions own their samples.  Histograms keep only per-bucket counts, a
  sum and a count (cumulative at render), so a registry that outlives many
  sessions stays bounded; a session's report keeps its own exact samples
  (:class:`repro.serving.metrics.MetricsCollector`) for nearest-rank
  percentiles.
* Reads (exposition, snapshots) copy child dicts before iterating, so a
  scrape racing a recovery replay on another thread degrades to a slightly
  stale sample, never a ``RuntimeError``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "LATENCY_BUCKETS_US",
    "BATCH_SIZE_BUCKETS",
]

#: Default histogram buckets for microsecond latencies (upper bounds).
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)

#: Default histogram buckets for micro-batch sizes.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ReproError(f"invalid metric name: {name!r}")
    return name


def _format_number(value: float) -> str:
    """Render a sample value the way the exposition format expects."""
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError("counters only move forward")
        self.value += amount


class Gauge:
    """A sample that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucketed observations: per-bucket counts, sum and count."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_US) -> None:
        ordered = tuple(sorted(float(bound) for bound in buckets))
        if not ordered:
            raise ReproError("histogram needs at least one bucket bound")
        self.buckets = ordered
        #: Per-bucket (non-cumulative) counts; the final slot is +Inf.
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        number = float(value)
        self.sum += number
        self.count += 1
        self.bucket_counts[bisect.bisect_left(self.buckets, number)] += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each value in order (one call per micro-batch)."""
        buckets, counts = self.buckets, self.bucket_counts
        total = self.sum
        for value in values:
            number = float(value)
            total += number
            counts[bisect.bisect_left(buckets, number)] += 1
        self.sum = total
        self.count += len(values)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        pairs = []
        running = 0
        for bound, count in zip(self.buckets, self.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.bucket_counts[-1]))
        return pairs


class MetricFamily:
    """One metric name; children keyed by their label-value tuples."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        **child_options,
    ) -> None:
        self.registry = registry
        self.kind = kind
        self.name = _check_name(name)
        self.help_text = help_text
        self.label_names = label_names
        self.child_options = child_options
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **label_values: object):
        """Get-or-create the child for one concrete label assignment."""
        # Hot path: build the key straight off the declared order and only
        # fall back to the diagnostic comparison when something is off.
        try:
            key = tuple(str(label_values[name]) for name in self.label_names)
        except KeyError:
            key = None
        if key is None or len(label_values) != len(self.label_names):
            raise ReproError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        child = self._children.get(key)
        if child is None:
            with self.registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def child(self):
        """The single child of an unlabelled family."""
        if self.label_names:
            raise ReproError(f"{self.name} is labelled; use .labels()")
        return self.labels()

    # Unlabelled families proxy the sample API straight through.
    def inc(self, amount: float = 1.0) -> None:
        self.child().inc(amount)

    def set(self, value: float) -> None:
        self.child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self.child().dec(amount)

    def observe(self, value: float) -> None:
        self.child().observe(value)

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(**self.child_options)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """A race-safe copy of the (label-values, child) pairs."""
        return sorted(self._children.items())

    def values(self) -> Dict[Tuple[str, ...], float]:
        """Label-values -> sample value (counters/gauges only)."""
        return {key: child.value for key, child in self.children()}


class MetricsRegistry:
    """Get-or-create store of metric families, renderable as exposition text."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, kind: str, name: str, help_text: str,
                label_names: Iterable[str], **child_options) -> MetricFamily:
        labels = tuple(label_names)
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        self, kind, name, help_text, labels, **child_options
                    )
                    self._families[name] = family
        if family.kind != kind or family.label_names != labels:
            raise ReproError(
                f"metric {name} already declared as {family.kind}"
                f"{family.label_names}; cannot redeclare as {kind}{labels}"
            )
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> MetricFamily:
        return self._family("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> MetricFamily:
        return self._family("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (), *,
                  buckets: Sequence[float] = LATENCY_BUCKETS_US) -> MetricFamily:
        return self._family(
            "histogram", name, help_text, labels, buckets=buckets
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def exposition(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                base_labels = list(zip(family.label_names, key))
                if family.kind == "histogram":
                    for bound, cumulative in child.cumulative():
                        labels = base_labels + [("le", _format_number(bound))]
                        lines.append(
                            f"{family.name}_bucket{_render_labels(labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(base_labels)} "
                        f"{_format_number(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(base_labels)} "
                        f"{child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(base_labels)} "
                        f"{_format_number(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-able dump of every family (tests and debugging)."""
        out: Dict[str, Dict[str, object]] = {}
        for family in self.families():
            series = {}
            for key, child in family.children():
                label = ",".join(f"{n}={v}" for n, v in zip(family.label_names, key))
                if family.kind == "histogram":
                    series[label] = {"count": child.count, "sum": child.sum}
                else:
                    series[label] = child.value
            out[family.name] = {"kind": family.kind, "series": series}
        return out


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"
