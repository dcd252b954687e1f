"""Serving-layer throughput: micro-batching vs one-at-a-time dispatch.

The serving subsystem exists to amortise the vectorized primitives' per-call
setup over whole micro-batches of streamed requests.  This benchmark gates
that promise on a Table-3-sized case base under *hot-template traffic* --
requests drawn from a small set of templates (shared function type and
attribute set, jittered values and weights), the access pattern of a
production front-end serving many clients of a few popular functions, and
the shape the vectorized backend's signature grouping is built for:

* micro-batched serving (``max_batch=128``) must beat one-at-a-time serving
  (``max_batch=1``) by at least :data:`SPEEDUP_GATE` in wall-clock
  throughput, with identical per-request outcomes;
* under a saturating deadline the admission gate triages deterministically.

Setting ``BENCH_SERVING_JSON=<path>`` records the measured numbers as a JSON
baseline -- ``BENCH_serving.json`` in the repository root seeds the perf
trajectory and is refreshed by the CI bench-smoke job's artifact.
"""

import random

import gating

from repro.core import FunctionRequest
from repro.serving import ServingConfig, ServingEngine, trace_from_requests

#: Trace sizing: hot-template traffic at a mid-sized burst.
REQUEST_COUNT = 256
TEMPLATE_COUNT = 6
ATTRIBUTES_PER_REQUEST = 6
INTERARRIVAL_US = 25.0

#: The acceptance gate: micro-batched serving must beat one-at-a-time by this.
#:
#: Recalibrated from 5.0 when the delta-propagation PR landed its
#: per-signature kernel/structural caches: those amortise the per-call setup
#: *without* batching, which made one-at-a-time serving ~3x faster in
#: absolute terms (50.9 ms -> ~17 ms for this trace) and batched serving
#: ~2x faster (7.1 ms -> ~3.7 ms), deliberately shrinking the *relative*
#: batching margin (measured ~4.5-6x, previously ~7x).  The committed
#: ``BENCH_serving.json`` tracks both absolute wall times so the trajectory
#: stays visible.
SPEEDUP_GATE = 3.5

#: Micro-batch bound of the batched configuration.
MAX_BATCH = 128


def _hot_template_trace(generator, seed=5):
    """Requests from a few hot templates with jittered values and weights."""
    templates = [
        generator.request(salt=700 + index, attribute_count=ATTRIBUTES_PER_REQUEST)
        for index in range(TEMPLATE_COUNT)
    ]
    rng = random.Random(seed)
    requests = []
    for _ in range(REQUEST_COUNT):
        template = rng.choice(templates)
        requests.append(FunctionRequest(
            template.type_id,
            [
                (attribute.attribute_id,
                 max(0, attribute.value + rng.randint(-3, 3)),
                 attribute.weight)
                for attribute in template.sorted_attributes()
            ],
            requester="bench-serving",
        ))
    return trace_from_requests(requests, interarrival_us=INTERARRIVAL_US)


def _engine(case_base, **overrides):
    defaults = dict(max_wait_us=1e9, n_best=1)
    defaults.update(overrides)
    return ServingEngine(case_base, config=ServingConfig(**defaults))


#: Replays per side of a wall-clock comparison; the sides alternate round by
#: round and each keeps its fastest (see :func:`gating.interleaved_best_of`).
REPLAY_ROUNDS = 15


def _record_baseline(key, payload):
    """Merge one measurement into the BENCH_SERVING_JSON baseline (see gating.py)."""
    gating.record_baseline("BENCH_SERVING_JSON", key, payload)


def test_micro_batch_speedup_gate(benchmark, table3_case_base, table3_generator):
    """>= 5x micro-batched vs one-at-a-time serving wall-clock throughput."""
    trace = _hot_template_trace(table3_generator)
    sequential = _engine(table3_case_base, max_batch=1)
    batched = _engine(table3_case_base, max_batch=MAX_BATCH)
    sequential.serve(trace)  # warm image / columnar / request caches
    batched.serve(trace)

    def measure():
        (sequential_seconds, sequential_report), (batched_seconds, batched_report) = (
            gating.interleaved_best_of(
                REPLAY_ROUNDS,
                lambda: sequential.serve(trace),
                lambda: batched.serve(trace),
            )
        )
        # Batching must change throughput only -- outcomes stay identical.
        assert batched_report.rankings() == sequential_report.rankings()
        assert (
            [record.status for record in batched_report.served]
            == [record.status for record in sequential_report.served]
        )
        return sequential_seconds, batched_seconds, batched_report

    sequential_seconds, batched_seconds, batched_report = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = sequential_seconds / batched_seconds
    _record_baseline("micro_batching", {
        "requests": REQUEST_COUNT,
        "one_at_a_time_seconds": round(sequential_seconds, 4),
        "micro_batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 1),
        "max_batch": MAX_BATCH,
        "throughput_rps": round(batched_report.metrics["throughput_rps"], 0),
        "mean_batch_size": round(
            batched_report.metrics["batches"]["mean_size"], 1
        ),
    })
    assert speedup >= SPEEDUP_GATE


def test_admission_qos_mix(benchmark, table3_case_base, table3_generator):
    """The deadline gate triages deterministically under saturating load."""
    trace = _hot_template_trace(table3_generator)
    engine = _engine(
        table3_case_base, max_batch=MAX_BATCH, deadline_us=2000.0
    )
    engine.serve(trace)

    report = benchmark(lambda: engine.serve(trace))
    statuses = report.metrics["statuses"]
    assert statuses.get("served_hardware", 0) > 0
    assert statuses.get("rejected_deadline", 0) > 0
    assert report.metrics["requests"] == REQUEST_COUNT
    # Deterministic virtual-time triage: replaying the trace reproduces it.
    assert engine.serve(trace).metrics["statuses"] == statuses
    _record_baseline("admission_deadline_2000us", {
        "requests": REQUEST_COUNT,
        "statuses": statuses,
        "rejection_rate": round(report.metrics["rejection_rate"], 3),
        "p95_latency_us": round(report.metrics["latency"]["p95_us"], 1),
    })
