"""Statistics, operation accounting and the result line shared by the workloads."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: HTTP codes a daemon client counts as success (202 = queued ``/learn``).
OK_HTTP_CODES = (200, 202)


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample.

    ``rank = max(1, ceil(n * fraction))``: the value reported is always one
    that was observed, and the p95 of 20 samples is the 19th.
    """
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie within [0, 1], got {fraction}")
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def weighted_percentile(pairs: Iterable[Tuple[float, int]], fraction: float) -> float:
    """Nearest-rank percentile of ``(value, count)`` pairs.

    Equal to :func:`nearest_rank` over the sample that repeats each value
    ``count`` times; replays use it to give every request of a micro-batch
    the wall time of the ``process_batch`` call that served it.
    """
    ordered = sorted(pairs)
    total = sum(count for _, count in ordered)
    if total <= 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie within [0, 1], got {fraction}")
    rank = max(1, math.ceil(total * fraction))
    seen = 0
    for value, count in ordered:
        seen += count
        if seen >= rank:
            return value
    return ordered[-1][0]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


@dataclass
class Operations:
    """Requests sent and how each ended."""

    sent: int = 0
    served: int = 0
    rejected: int = 0
    failed: int = 0

    def count_status(self, status: str) -> None:
        """Account one replayed request by its ``ServingStatus`` value."""
        self.sent += 1
        if status in ("served_hardware", "served_software"):
            self.served += 1
        elif status.startswith("rejected"):
            self.rejected += 1
        else:
            self.failed += 1

    def count_http(self, code: int, status: str = "") -> None:
        """Account one daemon call by its HTTP code (and serving status, if any)."""
        if code not in OK_HTTP_CODES:
            self.sent += 1
            self.failed += 1
        elif status:
            self.count_status(status)
        else:
            self.sent += 1
            self.served += 1

    @property
    def not_completed(self) -> int:
        """Requests refused or failed: each misses any latency limit."""
        return self.rejected + self.failed

    def summary(self) -> str:
        return (
            f"sent={self.sent} served={self.served} "
            f"rejected={self.rejected} failed={self.failed}"
        )


def result_line(
    *, correct: bool, operations: Operations, metrics: Dict[str, Tuple[float, str]]
) -> Dict[str, object]:
    """The JSON object the benchmark prints as its last line."""
    return {
        "correct": bool(correct),
        "attempted": max(1, operations.sent),
        "failed": operations.not_completed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


@dataclass
class Window:
    """One timed window: its wall length and its requests' latencies."""

    seconds: float
    #: ``(latency ms, requests)`` pairs (a replay batch counts all its requests).
    latencies: List[Tuple[float, int]]

    @property
    def requests(self) -> int:
        return sum(count for _, count in self.latencies)


def latency_metrics(windows: Sequence[Window]) -> Dict[str, Tuple[float, str]]:
    """Throughput and latency percentiles: each the median over windows.

    A burst of interference from outside the program then moves one
    window's figures, not the run's.
    """
    kept = [window for window in windows if window.latencies and window.seconds > 0]
    if not kept:
        raise ValueError("no timed window completed a request")
    return {
        "throughput_rps": (median([w.requests / w.seconds for w in kept]), "1/s"),
        "latency_p50_ms": (median([weighted_percentile(w.latencies, 0.50) for w in kept]), "ms"),
        "latency_p95_ms": (median([weighted_percentile(w.latencies, 0.95) for w in kept]), "ms"),
    }
