"""Tests of the benchmark's own helpers (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import math
import random

import pytest

import daemon_mixed
import measure
import spans


# -- the percentile rule -------------------------------------------------------------

def test_nearest_rank_picks_an_observed_value():
    sample = list(range(1, 21))
    assert measure.nearest_rank(sample, 0.95) == 19
    assert measure.nearest_rank(sample, 0.50) == 10
    assert measure.nearest_rank(sample, 0.0) == 1
    assert measure.nearest_rank(sample, 1.0) == 20
    with pytest.raises(ValueError):
        measure.nearest_rank(sample, 1.5)
    with pytest.raises(ValueError):
        measure.nearest_rank([], 0.5)


def test_weighted_percentile_equals_the_expanded_sample():
    rng = random.Random(7)
    pairs = [(rng.uniform(0, 10), rng.randint(1, 32)) for _ in range(200)]
    expanded = sorted(value for value, count in pairs for _ in range(count))
    for fraction in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
        assert measure.weighted_percentile(pairs, fraction) == measure.nearest_rank(
            expanded, fraction
        )


def test_latency_metrics_are_medians_over_windows():
    windows = [
        measure.Window(1.0, [(1.0, 10)]),
        measure.Window(2.0, [(2.0, 10), (4.0, 10)]),
        measure.Window(1.0, [(9.0, 30)]),
    ]
    metrics = measure.latency_metrics(windows)
    assert metrics["throughput_rps"] == (10.0, "1/s")
    assert metrics["latency_p50_ms"] == (2.0, "ms")
    assert metrics["latency_p95_ms"] == (4.0, "ms")
    assert measure.median([3.0, 1.0, 2.0, 10.0]) == 2.5


# -- self time on nested spans -------------------------------------------------------

def _span(name, start, end, parent=-1, rid=None, n=0, m=0):
    return [name, start, end, parent, rid, n, m]


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span("engine.process_batch", 0, 100, n=4),        # 0
        _span("admission.assess_batch", 10, 30, 0),         # 1
        _span("cycles.predict", 12, 28, 1, n=4, m=3),       # 2: grandchild of 0
        _span("retrieval.retrieve_batch", 25, 50, 0, n=8),  # 3: overlaps 1 by 5
    ]
    assert spans.self_times(recorded) == [60, 4, 16, 25]
    assert spans.covered_ns([(0, 10), (5, 20), (30, 40)]) == 30
    assert spans.covered_ns([]) == 0


def test_layer_metrics_normalise_and_window():
    recorded = [
        _span("scheduler.batches", 0, 10, n=4),
        _span("engine.process_batch", 10, 110, rid=0, n=4),
        _span("cycles.predict", 20, 60, 1, n=4, m=3),
        _span("retrieval.retrieve_batch", 60, 100, 1, n=8),
        _span("engine.process_batch", 500, 600, rid=4, n=4),  # outside the window
    ]
    metrics = spans.layer_metrics(recorded, [(0, 200)])
    assert metrics["scheduler.batches"] == (1, "count")
    assert metrics["scheduler.batch_size_mean"] == (4.0, "req/batch")
    assert metrics["engine.self_ms"] == (20 / 1e6 / 4, "ms/req")
    assert metrics["cycles.predict_ms"] == (40 / 1e6 / 4, "ms/req")
    assert metrics["cycles.repriced_fraction"] == (0.75, "fraction")
    assert metrics["retrieval.rows_scored"] == (8, "count")
    assert math.isclose(metrics["retrieval.us_per_row"][0], 40 / 1e3 / 8)
    assert metrics["trace.coverage"] == (110 / 200, "fraction")
    assert spans.server_ns_by_request(recorded, [(0, 200)]) == {0: 100}


def test_traced_metrics_match_the_declared_per_layer_list():
    import json
    from pathlib import Path

    declared = json.loads(
        (Path(spans.__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    produced = set(spans.layer_metrics([], [(0, 1)])) | {
        "trace.overhead", "learn.queued_fraction",
        "daemon.overhead_ms_p50", "daemon.retained_requests",
    }
    assert produced == {metric["name"] for metric in declared["per_layer"]}


def test_recorder_links_parents_and_inherits_request_ids():
    recorder = spans.SpanRecorder()
    outer = recorder.open("engine.process_batch", rid=7)
    inner = recorder.open("cycles.predict")
    recorder.close(inner)
    recorder.close(outer)
    top = recorder.open("journal.commit")
    recorder.close(top)
    assert [span[spans.PARENT] for span in recorder.spans] == [-1, 0, -1]
    assert [span[spans.RID] for span in recorder.spans] == [7, 7, None]
    assert all(span[spans.END] >= span[spans.START] for span in recorder.spans)


def test_install_traces_a_replay_and_uninstall_restores():
    from repro.serving import ServingSpec, trace_from_workloads
    from repro.serving.engine import ServingSession

    original = ServingSession.process_batch
    spec = ServingSpec(workloads=("heavy-traffic",))
    case_base = spec.resolve_case_base()
    trace = trace_from_workloads(
        ("heavy-traffic",), duration_us=2e5, seed=3, schema=case_base.schema
    )
    engine = spec.build_engine(case_base)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        engine.serve(trace)
    finally:
        uninstall()
    assert ServingSession.process_batch is original
    names = {span[spans.NAME] for span in recorder.spans}
    assert {"scheduler.batches", "engine.process_batch", "cycles.predict",
            "retrieval.retrieve_batch", "admission.assess_batch"} <= names
    metrics = spans.layer_metrics(recorder.spans, [(0, 2**63)])
    assert metrics["cycles.requests"][0] == len(trace)


# -- failure counting ----------------------------------------------------------------

def test_operations_count_failures_and_refusals():
    operations = measure.Operations()
    for status in ("served_hardware", "served_software", "rejected_deadline",
                   "rejected_infeasible", "failed"):
        operations.count_status(status)
    operations.count_http(200, "served_hardware")
    operations.count_http(202)            # queued /learn: ok
    operations.count_http(200)            # applied /learn: ok
    operations.count_http(503)
    operations.count_http(400)
    assert (operations.sent, operations.served, operations.rejected, operations.failed) == (
        10, 5, 2, 3
    )
    line = measure.result_line(correct=True, operations=operations, metrics={"x": (1, "s")})
    assert line["attempted"] == 10 and line["failed"] == 5
    assert line["metrics"] == {"x": {"value": 1.0, "unit": "s"}}
    assert measure.result_line(
        correct=True, operations=measure.Operations(), metrics={}
    )["attempted"] == 1


# -- /learn events -------------------------------------------------------------------

def test_learn_events_stay_inside_the_bounds_table():
    from repro.api import schemas
    from repro.serving import ServingSpec

    case_base = ServingSpec().resolve_case_base()
    bounds = case_base.bounds
    rng = random.Random(11)
    moved = 0
    for _ in range(300):
        event = daemon_mixed.jitter_event(case_base, rng)
        ((op, type_id, implementation),) = schemas.validate_mutation_events([event])
        assert op == "replace_implementation"
        previous = case_base.get_type(type_id).implementations[
            implementation.implementation_id
        ]
        assert set(implementation.attributes) == set(previous.attributes)
        for attribute_id, value in implementation.attributes.items():
            if attribute_id in bounds:
                bound = bounds.get(attribute_id)
                assert bound.lower <= value <= bound.upper
            moved += value != previous.attributes[attribute_id]
    assert moved > 0
    revision = case_base.revision
    assert schemas.apply_mutation_events(case_base, [event]) == 1
    assert case_base.revision == revision + 1
