"""Serving metrics: throughput, latency percentiles, batch-shape histograms.

The collector aggregates the per-request outcomes of one trace replay into
the numbers a capacity planner looks at: modelled p50/p95/p99 latency,
wall-clock dispatch throughput, batch-size distribution and rejection rates.
Latency percentiles use the nearest-rank method (the value reported is always
one actually observed), on the *modelled* virtual-time latencies -- wall-clock
numbers describe only the replay host and are reported separately.

Each collector keeps its own session's tallies -- status counts, modelled
cycles per server, the latency samples and a batch size -> count map -- and
its report reads only those.  It also feeds every observation to a
:class:`~repro.observability.MetricsRegistry` (the store the daemon renders
as Prometheus text exposition), whose histograms keep bucket counts only, so
the long-lived engine registry stays bounded however many sessions and
requests it sees.
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

    The report reads the collector's own tallies.  Every observation also
    lands in a :class:`~repro.observability.MetricsRegistry`: pass the
    engine's registry to fold this session into the live
    (Prometheus-scrapable) series, or pass ``None`` for a private one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = catalog.requests_total(self.registry)
        # Bind every series up front: the exposition always carries the
        # full queue/admission/retrieval histogram set, and the per-request
        # observation path is hot enough that repeated labels() lookups
        # show up in replays.
        stages = catalog.stage_latency(self.registry)
        self._stage_queue, self._stage_admission, self._stage_retrieval = (
            stages.labels(stage=stage) for stage in catalog.STAGES
        )
        self._latency_child = catalog.request_latency(self.registry).child()
        self._batches_child = catalog.batches_total(self.registry).child()
        self._batch_size_child = catalog.batch_size(self.registry).child()
        cycles = catalog.modelled_cycles(self.registry)
        self._hardware_child = cycles.labels(server="hardware")
        self._software_child = cycles.labels(server="software")
        self._status_children: Dict[str, object] = {}
        #: This session's tallies (what :meth:`report` reads).
        self.status_counts: Counter = Counter()
        self.latencies_us: List[float] = []
        self.batch_counts: Counter = Counter()
        self.hardware_cycles = 0
        self.software_cycles = 0
        self.wall_seconds = 0.0

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
        self._observe_status(status)
        if latency_us is not None:
            self._latency_child.observe(latency_us)
            self.latencies_us.append(float(latency_us))
        if hardware_cycles:
            self._hardware_child.inc(hardware_cycles)
            self.hardware_cycles += hardware_cycles
        if software_cycles:
            self._software_child.inc(software_cycles)
            self.software_cycles += software_cycles
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
        for record in records:
            status = record.status.value
            self._observe_status(status)
            if record.cycles:
                if status == "served_hardware":
                    self._hardware_child.inc(record.cycles)
                    self.hardware_cycles += record.cycles
                elif status == "served_software":
                    self._software_child.inc(record.cycles)
                    self.software_cycles += record.cycles
        latencies = [
            record.latency_us for record in records if record.latency_us is not None
        ]
        self._latency_child.observe_many(latencies)
        self.latencies_us.extend(latencies)
        self._stage_queue.observe_many([record.wait_us for record in records])
        self._stage_admission.observe_many([record.queue_us for record in records])
        self._stage_retrieval.observe_many([record.service_us for record in records])

    def _observe_status(self, status: str) -> None:
        """Count one request's terminal status."""
        child = self._status_children.get(status)
        if child is None:
            child = self._status_children[status] = self._requests.labels(
                status=status
            )
        child.inc()
        self.status_counts[status] += 1

    def observe_batch(self, size: int) -> None:
        """Record one dispatched batch."""
        self._batches_child.inc()
        self._batch_size_child.observe(size)
        self.batch_counts[size] += 1

    # -- aggregation ---------------------------------------------------------------

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
        batches = sum(self.batch_counts.values())
        batched = sum(size * count for size, count in self.batch_counts.items())
        return {
            "requests": total,
            "served": served,
            "rejected": rejected,
            "rejection_rate": (rejected / total) if total else 0.0,
            "statuses": dict(sorted(statuses.items())),
            "latency": latency,
            "batches": {
                "count": batches,
                "mean_size": batched / batches if batches else 0.0,
                "histogram": dict(sorted(self.batch_counts.items())),
            },
            "modelled_cycles": {
                "hardware": self.hardware_cycles,
                "software": self.software_cycles,
            },
            "wall_seconds": self.wall_seconds,
            "throughput_rps": (total / self.wall_seconds) if self.wall_seconds else None,
        }
