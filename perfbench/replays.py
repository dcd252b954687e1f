"""The offline replay workloads: ``ServingSpec`` -> ``ServingEngine`` sessions.

A run builds the engine several times (the median is ``setup_s``), then
replays passes of freshly generated trace for the timed phase, each pass
one to two seconds of wall time.  Each pass is a new session on the same
engine, so retained records stay bounded by the pass size and peak RSS does
not grow with throughput; pass inputs are generated between passes, outside
the clock.  A request's latency is the wall time of the
``ServingSession.process_batch`` call that served it; throughput and the
latency percentiles are medians over passes.

After the timed phase, a fixed sample of the first pass is re-served through
the golden path (``backend="naive"``, ``cycle_engine="stepwise"``); statuses,
rankings (IDs and similarity doubles) and cycles must match exactly.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import measure
import spans

SETUP_REPEATS = 5


@dataclass(frozen=True)
class ReplayWorkload:
    """One replay workload: its case base, its trace passes and its sample."""

    name: str
    #: ``seed -> CaseBase`` (built fresh for every setup and the golden check).
    case_base: Callable[[int], object]
    #: ``(case_base, seed, warm_up) -> trace``: one timed pass, or the
    #: shorter warm-up replayed during set-up.
    trace: Callable[[object, int, bool], list]
    #: Every ``golden_stride``-th batch of the first pass is re-served.
    golden_stride: int
    golden_batches: int


def _hot_case_base(seed: int):
    from repro.serving import ServingSpec

    return ServingSpec(workloads=("heavy-traffic",)).resolve_case_base()


def _hot_trace(case_base, seed: int, warm_up: bool) -> list:
    from repro.serving import trace_from_workloads

    # Modelled heavy-traffic arrivals, ~500 per second over 37 signatures.
    return trace_from_workloads(
        ("heavy-traffic",),
        duration_us=4e6 if warm_up else 25e6,
        seed=seed,
        schema=case_base.schema,
    )


def _wide_case_base(seed: int):
    from repro.tools.casebase_gen import CaseBaseGenerator, GeneratorSpec

    spec = GeneratorSpec(
        type_count=12,
        implementations_per_type=200,
        attributes_per_implementation=10,
        attribute_type_count=10,
    )
    return CaseBaseGenerator(spec, seed=seed).case_base()


def _wide_trace(case_base, seed: int, warm_up: bool) -> list:
    from repro.serving import synthetic_trace

    # 10 us mean gaps put 32 arrivals well inside the 500 us batch window.
    return synthetic_trace(
        case_base, 512 if warm_up else 6144, mean_interarrival_us=10.0, seed=seed
    )


WORKLOADS: Dict[str, ReplayWorkload] = {
    "replay-hot": ReplayWorkload(
        "replay-hot", _hot_case_base, _hot_trace, golden_stride=16, golden_batches=24
    ),
    "replay-wide": ReplayWorkload(
        "replay-wide", _wide_case_base, _wide_trace, golden_stride=11, golden_batches=2
    ),
}


def _seeds(seed: int):
    """Warm-up seed, then an endless run of pass seeds disjoint from it."""
    base = seed * 100_003
    yield base
    index = 1
    while True:
        yield base + index
        index += 1


@dataclass
class Phase:
    """What one timed phase measured: one window per pass."""

    windows: List[measure.Window] = field(default_factory=list)
    #: ``(start_ns, end_ns)`` of each pass (the traced run keeps their spans).
    bounds: List[Tuple[int, int]] = field(default_factory=list)
    #: The first pass's trace and the records its session produced.
    first_trace: list = field(default_factory=list)
    first_records: dict = field(default_factory=dict)


def _setup(workload: ReplayWorkload, spec, seed: int, warm_seed: int):
    times = []
    for _ in range(SETUP_REPEATS):
        engine = None  # the previous engine must not count towards peak RSS
        case_base = workload.case_base(seed)
        warm = workload.trace(case_base, warm_seed, True)
        gc.collect()
        start = time.perf_counter()
        engine = spec.build_engine(case_base)
        session = engine.session()
        for batch in engine.scheduler.batches(warm):
            session.process_batch(batch)
        times.append(time.perf_counter() - start)
    return engine, times


def _timed_phase(engine, workload, seconds: float, seeds, operations) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    elapsed = 0.0
    while elapsed < seconds:
        trace = workload.trace(engine.case_base, next(seeds), False)
        session = engine.session()
        walls: List[Tuple[float, int]] = []
        gc.collect()
        start = time.perf_counter_ns()
        for batch in engine.scheduler.batches(trace):
            before = clock()
            session.process_batch(batch)
            walls.append(((clock() - before) * 1e3, len(batch)))
        end = time.perf_counter_ns()
        phase.windows.append(measure.Window((end - start) / 1e9, walls))
        phase.bounds.append((start, end))
        elapsed += (end - start) / 1e9
        for record in session.records.values():
            operations.count_status(record.status.value)
        if not phase.first_trace:
            phase.first_trace, phase.first_records = trace, session.records
    return phase


def _outcome(record) -> tuple:
    ranking = (
        tuple((entry.implementation_id, entry.similarity) for entry in record.result.ranked)
        if record.result is not None
        else None
    )
    return record.index, record.status.value, ranking, record.cycles


def golden_mismatches(workload: ReplayWorkload, spec, engine, seed: int, phase: Phase) -> int:
    """Re-serve a sample of the first pass on the golden path; count differences."""
    batches = list(engine.scheduler.batches(phase.first_trace))
    sample = batches[:: workload.golden_stride][: workload.golden_batches]
    golden = spec.replace(backend="naive", cycle_engine="stepwise").build_engine(
        workload.case_base(seed)
    ).session()
    mismatches = 0
    for batch in sample:
        for record in golden.process_batch(batch):
            served = phase.first_records.get(record.index)
            if served is None or _outcome(served) != _outcome(record):
                mismatches += 1
    return mismatches


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Dict[str, object]:
    from repro.serving import ServingSpec

    workload = WORKLOADS[name]
    spec = ServingSpec()
    seeds = _seeds(seed)
    engine, setup_times = _setup(workload, spec, seed, next(seeds))
    operations = measure.Operations()
    if not traced:
        phase = _timed_phase(engine, workload, seconds, seeds, operations)
        metrics = measure.latency_metrics(phase.windows)
        metrics["setup_s"] = (measure.median(setup_times), "s")
        metrics["peak_rss_mb"] = (measure.peak_rss_mb(), "MiB")
    else:
        plain = _timed_phase(engine, workload, seconds / 2, seeds, operations)
        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
        try:
            phase = _timed_phase(engine, workload, seconds / 2, seeds, operations)
        finally:
            uninstall()
        recorder.dump(os.path.join(out_dir, f"{name}.spans.json"))
        metrics = spans.layer_metrics(recorder.spans, phase.bounds)
        traced_rps = measure.latency_metrics(phase.windows)["throughput_rps"][0]
        plain_rps = measure.latency_metrics(plain.windows)["throughput_rps"][0]
        metrics.update({
            "trace.overhead": (traced_rps / plain_rps, "ratio"),
            # Daemon-only layers: nothing of theirs runs in an offline replay.
            "learn.queued_fraction": (0.0, "fraction"),
            "daemon.overhead_ms_p50": (0.0, "ms"),
            "daemon.retained_requests": (0, "count"),
        })
    mismatches = golden_mismatches(workload, spec, engine, seed, phase)
    print(f"{name}: {operations.summary()} golden_mismatches={mismatches}")
    return measure.result_line(
        correct=mismatches == 0 and operations.not_completed == 0,
        operations=operations,
        metrics=metrics,
    )
