"""Wall-clock span recorder for the traced run.

The recorder wraps public functions of the program's layers on their classes
(and, for ``repro.api.schemas``, in their module) and keeps one span per call
in memory: name, start and end in ``perf_counter_ns`` (CLOCK_MONOTONIC on
Linux, so spans from a daemon process line up with client timestamps), the
index of the enclosing span, a request ID and two per-layer counts.  Nothing
under ``src/`` is edited; the spans are written out when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  :func:`layer_metrics` turns the spans inside the
timed windows into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span slots (a span is a plain list: cheap to create, trivially serialised).
NAME, START, END, PARENT, RID, N, M = range(7)

#: Per-request time metrics and the span names whose self time they sum.
_LAYER_TIME_NAMES = {
    "engine.self_ms": ("engine.process_batch",),
    "admission.self_ms": ("admission.assess_batch",),
    "cycles.predict_ms": ("cycles.predict",),
    "retrieval.ms": ("retrieval.retrieve_batch",),
    "observability.ms": (
        "observability.begin_batch",
        "observability.end_batch",
        "observability.record_request",
    ),
    "metrics.ms": ("metrics.observe_batch", "metrics.observe_request"),
    "schemas.decode_ms": ("schemas.decode",),
    "schemas.encode_ms": ("schemas.encode",),
}


class SpanRecorder:
    """In-memory spans with parent links and per-request IDs."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        #: Request ID of the last served batch (journal commits follow it).
        self.last_batch_rid: Optional[int] = None
        #: Decode spans waiting for their request's trace index, keyed by
        #: the identity of the decoded request object.
        self.pending_decodes: Dict[int, int] = {}
        #: ``(signature, case-base revision)`` pairs already priced.
        self.priced: set = set()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: Optional[int] = None) -> int:
        """Start a span; children inherit the enclosing span's request ID."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][RID]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, rid, 0, 0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack().pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": self.spans}, stream, separators=(",", ":"))

    @staticmethod
    def load(path: str) -> List[list]:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)["spans"]


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

#: ``after(recorder, span_index, args, kwargs, result)``: fills span counts.
Hook = Callable[[SpanRecorder, int, tuple, dict, object], None]


def _wrap(
    owner,
    attr: str,
    name: str,
    recorder: SpanRecorder,
    *,
    rid: Optional[Callable[[SpanRecorder, tuple, dict], Optional[int]]] = None,
    after: Optional[Hook] = None,
) -> Tuple[object, str, object]:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, rid(recorder, args, kwargs) if rid else None)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, span, args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _batch_rid(recorder: SpanRecorder, args: tuple, kwargs: dict) -> Optional[int]:
    batch = args[1]
    if not batch.entries:
        return None
    for index, entry in batch.entries:
        decode = recorder.pending_decodes.pop(id(entry.request), None)
        if decode is not None:
            recorder.spans[decode][RID] = index
    recorder.last_batch_rid = batch.entries[0][0]
    return recorder.last_batch_rid


def _count_batch(recorder, span, args, kwargs, result) -> None:
    recorder.spans[span][N] = len(args[1].entries)


def _register_decode(recorder, span, args, kwargs, result) -> None:
    recorder.pending_decodes[id(result)] = span


def _count_priced(recorder, span, args, kwargs, result) -> None:
    unit, requests = args[0], args[1]
    revision = unit.case_base.revision
    repriced = 0
    for request in requests:
        key = (request.signature(), revision)
        if key in recorder.priced:
            repriced += 1
        else:
            recorder.priced.add(key)
    recorder.spans[span][N] = len(requests)
    recorder.spans[span][M] = repriced


def _count_rows(recorder, span, args, kwargs, result) -> None:
    case_base = args[0].case_base
    rows = 0
    for request in args[1]:
        if request.type_id in case_base:
            rows += len(case_base.get_type(request.type_id))
    recorder.spans[span][N] = rows


def _record_rid(recorder, args, kwargs) -> Optional[int]:
    return args[0].index


def _commit_rid(recorder, args, kwargs) -> Optional[int]:
    return recorder.last_batch_rid if "batch" in kwargs else None


def _snapshot_rid(recorder, args, kwargs) -> Optional[int]:
    return recorder.last_batch_rid


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer function; returns a function undoing it."""
    from repro.api import schemas
    from repro.core.caching import RevisionTrackedCache
    from repro.core.journal import DeltaJournal
    from repro.hardware.retrieval_unit import HardwareRetrievalUnit
    from repro.observability import Observability
    from repro.serving.admission import AdmissionController
    from repro.serving.engine import ServingSession
    from repro.serving.metrics import MetricsCollector
    from repro.serving.scheduler import MicroBatchScheduler
    from repro.serving.shards import ShardedRetriever

    installed = [
        _wrap(ServingSession, "process_batch", "engine.process_batch", recorder,
              rid=_batch_rid, after=_count_batch),
        _wrap(AdmissionController, "assess_batch", "admission.assess_batch", recorder),
        _wrap(HardwareRetrievalUnit, "predict_cycles", "cycles.predict", recorder,
              after=_count_priced),
        _wrap(ShardedRetriever, "retrieve_batch", "retrieval.retrieve_batch", recorder,
              after=_count_rows),
        _wrap(Observability, "begin_batch", "observability.begin_batch", recorder),
        _wrap(Observability, "end_batch", "observability.end_batch", recorder),
        _wrap(Observability, "record_request", "observability.record_request", recorder),
        _wrap(MetricsCollector, "observe_batch", "metrics.observe_batch", recorder),
        _wrap(MetricsCollector, "observe_request", "metrics.observe_request", recorder),
        _wrap(schemas, "request_from_wire", "schemas.decode", recorder,
              after=_register_decode),
        _wrap(schemas, "validate_mutation_events", "schemas.decode", recorder),
        _wrap(schemas, "served_request_to_wire", "schemas.encode", recorder,
              rid=_record_rid),
        _wrap(schemas, "apply_mutation_events", "learn.apply", recorder),
        _wrap(DeltaJournal, "commit", "journal.commit", recorder, rid=_commit_rid),
        _wrap(DeltaJournal, "begin", "journal.snapshot", recorder, rid=_snapshot_rid),
    ]

    ensure_current = RevisionTrackedCache.ensure_current

    @functools.wraps(ensure_current)
    def traced_ensure_current(self) -> None:
        if self.current:  # the hot no-op path records nothing
            return ensure_current(self)
        incremental = self.incremental_count
        span = recorder.open("caching.refresh")
        try:
            ensure_current(self)
        finally:
            recorder.close(span)
        recorder.spans[span][M] = 1 if self.incremental_count > incremental else 0

    RevisionTrackedCache.ensure_current = traced_ensure_current
    installed.append((RevisionTrackedCache, "ensure_current", ensure_current))

    batches = MicroBatchScheduler.batches

    @functools.wraps(batches)
    def traced_batches(self, trace):
        produced = batches(self, trace)
        while True:
            span = recorder.open("scheduler.batches")
            try:
                batch = next(produced)
            except StopIteration:
                return
            finally:
                recorder.close(span)
            recorder.spans[span][N] = len(batch)
            yield batch

    MicroBatchScheduler.batches = traced_batches
    installed.append((MicroBatchScheduler, "batches", batches))

    def uninstall() -> None:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def covered_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[list]) -> List[int]:
    """Per span: duration minus the union of its children's intervals (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        inner = children.get(index)
        result.append(duration - covered_ns(inner) if inner else duration)
    return result


def in_windows(start_ns: int, windows: Sequence[Tuple[int, int]]) -> bool:
    return any(low <= start_ns < high for low, high in windows)


def layer_metrics(
    spans: Sequence[list], windows: Sequence[Tuple[int, int]]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the spans that start inside the timed windows.

    Times are normalised by the unit printed beside them: per request served
    (``ms/req``), or per operation of the layer's own count.
    """
    selves = self_times(spans)
    kept = [
        (span, own) for span, own in zip(spans, selves) if in_windows(span[START], windows)
    ]
    self_ns: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    n_sum: Dict[str, int] = {}
    m_sum: Dict[str, int] = {}
    top_level_ns = 0
    for span, own in kept:
        name = span[NAME]
        self_ns[name] = self_ns.get(name, 0) + own
        counts[name] = counts.get(name, 0) + 1
        n_sum[name] = n_sum.get(name, 0) + span[N]
        m_sum[name] = m_sum.get(name, 0) + span[M]
        if span[PARENT] < 0:
            top_level_ns += span[END] - span[START]
    requests = n_sum.get("engine.process_batch", 0)
    per_request = 1.0 / requests if requests else 0.0

    def ms(names: Sequence[str]) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e6

    def per_op(name: str) -> float:
        return ms((name,)) / counts[name] if counts.get(name) else 0.0

    def fraction(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    batches = sum(1 for span, _ in kept if span[NAME] == "scheduler.batches" and span[N])
    metrics: Dict[str, Tuple[float, str]] = {
        "scheduler.batches": (batches, "count"),
        "scheduler.batch_size_mean": (
            fraction(n_sum.get("scheduler.batches", 0), batches), "req/batch"
        ),
    }
    for metric, names in _LAYER_TIME_NAMES.items():
        metrics[metric] = (ms(names) * per_request, "ms/req")
    rows = n_sum.get("retrieval.retrieve_batch", 0)
    metrics.update({
        "cycles.requests": (n_sum.get("cycles.predict", 0), "count"),
        "cycles.repriced_fraction": (
            fraction(m_sum.get("cycles.predict", 0), n_sum.get("cycles.predict", 0)),
            "fraction",
        ),
        "retrieval.rows_scored": (rows, "count"),
        "retrieval.us_per_row": (
            fraction(ms(("retrieval.retrieve_batch",)) * 1e3, rows), "us/row"
        ),
        "caching.refreshes": (counts.get("caching.refresh", 0), "count"),
        "caching.refresh_ms": (per_op("caching.refresh"), "ms/refresh"),
        "caching.incremental_fraction": (
            fraction(m_sum.get("caching.refresh", 0), counts.get("caching.refresh", 0)),
            "fraction",
        ),
        "learn.apply_ms": (per_op("learn.apply"), "ms/learn"),
        "journal.commit_ms": (per_op("journal.commit"), "ms/commit"),
        "journal.commits": (counts.get("journal.commit", 0), "count"),
        "journal.snapshot_ms": (per_op("journal.snapshot"), "ms/snapshot"),
        "journal.snapshots": (counts.get("journal.snapshot", 0), "count"),
        "trace.coverage": (
            fraction(top_level_ns, sum(high - low for low, high in windows)), "fraction"
        ),
    })
    return metrics


def server_ns_by_request(
    spans: Sequence[list], windows: Sequence[Tuple[int, int]]
) -> Dict[int, int]:
    """Top-level span time per request ID inside the windows (daemon side)."""
    totals: Dict[int, int] = {}
    for span in spans:
        if span[PARENT] >= 0 or span[RID] is None or not in_windows(span[START], windows):
            continue
        totals[span[RID]] = totals.get(span[RID], 0) + span[END] - span[START]
    return totals
