"""Serving metrics: throughput, latency percentiles, batch-shape histograms.

The collector aggregates the per-request outcomes of one trace replay into
the numbers a capacity planner looks at: modelled p50/p95/p99 latency,
wall-clock dispatch throughput, batch-size distribution and rejection rates.
Latency percentiles use the nearest-rank method (the value reported is always
one actually observed), on the *modelled* virtual-time latencies -- wall-clock
numbers describe only the replay host and are reported separately.

Since the observability PR the collector no longer keeps private tallies: it
reads and writes a :class:`~repro.observability.MetricsRegistry` (the same
store the daemon renders as Prometheus text exposition), capturing baselines
at construction so each collector still reports only its own session even
when several share one engine-level registry.  The historic attribute API
(``status_counts``, ``latencies_us``, ``batch_sizes``, ...) survives as
registry-backed views.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..observability import MetricsRegistry, catalog


def _check_fraction(fraction: float) -> None:
    """Reject fractions outside [0, 1] regardless of the sample's shape."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(
            f"percentile fraction must lie within [0, 1], got {fraction}"
        )


def _nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank pick from an already-sorted non-empty sample."""
    _check_fraction(fraction)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[rank - 1]


def percentile(values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an unsorted sample (``None`` when empty).

    ``rank = max(1, ceil(n * fraction))``: interpolation-free, so the value
    reported is always one actually observed.  The fraction is validated
    before the sample is inspected, so a bad fraction raises identically
    for empty and non-empty samples.
    """
    _check_fraction(fraction)
    if not values:
        return None
    return _nearest_rank(sorted(values), fraction)


def percentiles(
    values: List[float], fractions: Iterable[float] = (0.5, 0.95, 0.99)
) -> Tuple[Optional[float], ...]:
    """Several nearest-rank percentiles from one sorted pass.

    Sorts the sample once and picks each requested rank, instead of one
    sort per fraction.  Returns ``None`` entries for an empty sample.
    Every fraction is validated up front, empty sample or not.
    """
    wanted = tuple(fractions)
    for fraction in wanted:
        _check_fraction(fraction)
    if not values:
        return tuple(None for _ in wanted)
    ordered = sorted(values)
    return tuple(_nearest_rank(ordered, fraction) for fraction in wanted)


class MetricsCollector:
    """Accumulates per-request and per-batch observations of one replay.

    Backed by a :class:`~repro.observability.MetricsRegistry`: pass the
    engine's registry to fold this session's observations into the live
    (Prometheus-scrapable) series, or pass ``None`` for a private one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = catalog.requests_total(self.registry)
        self._latency = catalog.request_latency(self.registry)
        self._stages = catalog.stage_latency(self.registry)
        self._batches = catalog.batches_total(self.registry)
        self._batch_size = catalog.batch_size(self.registry)
        self._cycles = catalog.modelled_cycles(self.registry)
        # Materialise every stage series up front so the exposition always
        # carries the full queue/admission/retrieval histogram set,
        # and keep the bound children -- the per-request observation path
        # is hot enough that repeated labels() lookups show up in replays.
        for stage in catalog.STAGES:
            self._stages.labels(stage=stage)
        self._stage_queue = self._stages.labels(stage="queue")
        self._stage_admission = self._stages.labels(stage="admission")
        self._stage_retrieval = self._stages.labels(stage="retrieval")
        self._latency_child = self._latency.child()
        self._batches_child = self._batches.child()
        self._batch_size_child = self._batch_size.child()
        self._hardware_cycles = self._cycles.labels(server="hardware")
        self._software_cycles = self._cycles.labels(server="software")
        self._status_children: Dict[str, object] = {}
        # Session baselines: everything before this point belongs to an
        # earlier collector on the same registry.
        self._base_statuses = self._requests.values()
        self._base_cycles = self._cycles.values()
        self._base_latencies = len(self._latency.child().values)
        self._base_batches = len(self._batch_size.child().values)
        self.wall_seconds = 0.0

    # -- registry-backed views -----------------------------------------------------

    @property
    def status_counts(self) -> Counter:
        counts: Counter = Counter()
        for (status,), value in self._requests.values().items():
            delta = int(value - self._base_statuses.get((status,), 0.0))
            if delta:
                counts[status] = delta
        return counts

    @property
    def latencies_us(self) -> List[float]:
        return list(self._latency.child().values[self._base_latencies:])

    @property
    def batch_sizes(self) -> List[int]:
        values = self._batch_size.child().values[self._base_batches:]
        return [int(size) for size in values]

    @property
    def hardware_cycles(self) -> int:
        return self._cycles_delta("hardware")

    @property
    def software_cycles(self) -> int:
        return self._cycles_delta("software")

    def _cycles_delta(self, server: str) -> int:
        now = self._cycles.values().get((server,), 0.0)
        return int(now - self._base_cycles.get((server,), 0.0))

    # -- observations --------------------------------------------------------------

    def observe_request(
        self,
        status: str,
        *,
        latency_us: Optional[float] = None,
        hardware_cycles: int = 0,
        software_cycles: int = 0,
        wait_us: Optional[float] = None,
        queue_us: Optional[float] = None,
        service_us: Optional[float] = None,
    ) -> None:
        """Record one served/rejected/failed request.

        The optional stage timings feed the per-stage latency histograms
        (``queue`` = scheduler wait, ``admission`` = server-queue occupancy,
        ``retrieval`` = modelled service time).
        """
        child = self._status_children.get(status)
        if child is None:
            child = self._status_children[status] = self._requests.labels(
                status=status
            )
        child.inc()
        if latency_us is not None:
            self._latency_child.observe(latency_us)
        if hardware_cycles:
            self._hardware_cycles.inc(hardware_cycles)
        if software_cycles:
            self._software_cycles.inc(software_cycles)
        if wait_us is not None:
            self._stage_queue.observe(wait_us)
        if queue_us is not None:
            self._stage_admission.observe(queue_us)
        if service_us is not None:
            self._stage_retrieval.observe(service_us)

    def observe_records(self, records: Sequence) -> None:
        """Record a micro-batch of terminal serving records
        (:class:`~repro.serving.engine.ServedRequest`).

        The same observations as one :meth:`observe_request` per record with
        its status, modelled latency, cycles (booked to the tier that served
        it) and all three stage timings, in record order.
        """
        children = self._status_children
        for record in records:
            status = record.status.value
            child = children.get(status)
            if child is None:
                child = children[status] = self._requests.labels(status=status)
            child.inc()
            if record.cycles:
                if status == "served_hardware":
                    self._hardware_cycles.inc(record.cycles)
                elif status == "served_software":
                    self._software_cycles.inc(record.cycles)
        self._latency_child.observe_many(
            [record.latency_us for record in records if record.latency_us is not None]
        )
        self._stage_queue.observe_many([record.wait_us for record in records])
        self._stage_admission.observe_many([record.queue_us for record in records])
        self._stage_retrieval.observe_many([record.service_us for record in records])

    def observe_batch(self, size: int) -> None:
        """Record one dispatched batch."""
        self._batches_child.inc()
        self._batch_size_child.observe(size)

    # -- aggregation ---------------------------------------------------------------

    @property
    def request_count(self) -> int:
        """Total number of requests observed."""
        return sum(self.status_counts.values())

    def batch_histogram(self) -> Dict[int, int]:
        """``{batch size: occurrence count}`` over the replay."""
        return dict(sorted(Counter(self.batch_sizes).items()))

    def report(self) -> Dict[str, object]:
        """The aggregate serving report (JSON-serialisable)."""
        statuses = self.status_counts
        total = sum(statuses.values())
        served = sum(
            count
            for status, count in statuses.items()
            if status.startswith("served")
        )
        rejected = total - served
        samples = self.latencies_us
        p50, p95, p99 = percentiles(samples, (0.50, 0.95, 0.99))
        latency = {
            "p50_us": p50,
            "p95_us": p95,
            "p99_us": p99,
            "mean_us": (sum(samples) / len(samples)) if samples else None,
            "max_us": max(samples) if samples else None,
        }
        batch_sizes = self.batch_sizes
        return {
            "requests": total,
            "served": served,
            "rejected": rejected,
            "rejection_rate": (rejected / total) if total else 0.0,
            "statuses": dict(sorted(statuses.items())),
            "latency": latency,
            "batches": {
                "count": len(batch_sizes),
                "mean_size": (
                    sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
                ),
                "histogram": self.batch_histogram(),
            },
            "modelled_cycles": {
                "hardware": self.hardware_cycles,
                "software": self.software_cycles,
            },
            "wall_seconds": self.wall_seconds,
            "throughput_rps": (total / self.wall_seconds) if self.wall_seconds else None,
        }
