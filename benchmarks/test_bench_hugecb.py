"""Huge case bases: pruned two-stage retrieval and O(1) memmap reopen gates.

The ISSUE-10 acceptance criteria at >= 10^5 implementations:

* the ``prefilter="bounds"`` two-stage path must pay off where it is designed
  to -- selective queries over locality-structured implementation libraries
  (per-block column ranges tight, similarity cut near 1.0) -- while returning
  bit-identical rankings;
* on adversarially uniform data (every block spans the full value range, so
  the screen can prove nothing) its overhead must stay bounded;
* reopening a persisted :class:`~repro.memmap.ImageStore` image must be
  O(types), not O(implementations): dramatically cheaper than re-encoding
  the per-type tables, and near-constant across case-base sizes.

All measurements are recorded into ``BENCH_hugecb.json`` when
``BENCH_HUGECB_JSON`` names a path (CI's hugecb-smoke lane refreshes the
committed baseline); the ``gated`` field reports honestly whether the
assertion ran.
"""

import gating
import pytest

from repro.apps import HugeCaseBaseWorkload, build_case_base
from repro.core import RetrievalEngine
from repro.core.attributes import AttributeSchema, BoundsTable
from repro.core.case_base import CaseBase, ExecutionTarget, Implementation
from repro.core.request import FunctionRequest
from repro.memmap import ImageStore
from repro.serving.loadgen import trace_from_workloads

#: Total implementation count of both gate case bases (the ISSUE-10 floor).
TOTAL_ROWS = 100_000
CLUSTERED_TYPES = 2
WORKLOAD_TYPES = 16

SPEEDUP_GATE = 3.0
OVERHEAD_GATE = 2.0
REOPEN_VS_ENCODE_GATE = 3.0
REOPEN_SCALING_GATE = 5.0


def _record_baseline(key, payload):
    """Merge one measurement into the BENCH_HUGECB_JSON baseline (see gating.py)."""
    gating.record_baseline("BENCH_HUGECB_JSON", key, payload)


def _slim_view(results):
    return [
        [(entry.implementation_id, entry.similarity) for entry in result.ranked]
        for result in results
    ]


def clustered_case_base(rows_per_type: int) -> CaseBase:
    """Attribute values correlated with implementation order.

    Real implementation libraries arrive sorted by the dimensions that drove
    their synthesis (bitwidth sweeps, area/latency ladders), which is what
    gives the pre-filter's per-block column ranges their tightness.  Uniform
    random data -- the other fixture -- is the screen's worst case.
    """
    schema = AttributeSchema()
    bounds = BoundsTable()
    for attribute_id in (1, 2, 3):
        schema.define(attribute_id, f"sweep_{attribute_id}")
        bounds.define(attribute_id, 0, 2 * rows_per_type)
    case_base = CaseBase(schema=schema, bounds=bounds)
    for type_id in range(1, CLUSTERED_TYPES + 1):
        function_type = case_base.add_type(type_id, name=f"ladder-{type_id}")
        for index in range(rows_per_type):
            function_type.add(Implementation(
                implementation_id=index + 1,
                target=ExecutionTarget.GPP,
                attributes={
                    1: index * 2,
                    2: 2 * rows_per_type - index * 2,
                    3: (index * 2 + type_id * 7) % (2 * rows_per_type),
                },
            ))
    return case_base


def selective_requests(rows_per_type: int, count: int):
    """Exact-match queries: the stored optimum drives the cut to 1.0."""
    requests = []
    for salt in range(count):
        index = (salt * 4099) % rows_per_type
        requests.append(FunctionRequest(
            1 + (salt % CLUSTERED_TYPES),
            [(1, index * 2), (2, 2 * rows_per_type - index * 2)],
        ))
    return requests


@pytest.fixture(scope="module")
def clustered_setup():
    rows_per_type = TOTAL_ROWS // CLUSTERED_TYPES
    return clustered_case_base(rows_per_type), selective_requests(rows_per_type, 12)


@pytest.fixture(scope="module")
def workload_setup():
    """The huge-casebase workload's uniform library plus its request trace."""
    workload = HugeCaseBaseWorkload(
        implementations=TOTAL_ROWS, types=WORKLOAD_TYPES, seed=7
    )
    case_base = build_case_base([workload])
    trace = trace_from_workloads(
        [workload], duration_us=100_000.0, seed=7, schema=case_base.schema
    )
    return case_base, [entry.request for entry in trace]


def _measure_pair(case_base, requests, runs):
    """(off seconds, bounds seconds) over the same batch, bit-checked."""
    off = RetrievalEngine(case_base, backend="vectorized", prefilter="off")
    on = RetrievalEngine(case_base, backend="vectorized", prefilter="bounds")
    off.retrieve_n_best(requests[0], 5)  # warm the matrix caches
    on.retrieve_n_best(requests[0], 5)
    (off_seconds, off_results), (on_seconds, on_results) = gating.interleaved_best_of(
        runs,
        lambda: [off.retrieve_n_best(request, 5) for request in requests],
        lambda: [on.retrieve_n_best(request, 5) for request in requests],
    )
    assert _slim_view(on_results) == _slim_view(off_results)
    return off_seconds, on_seconds, on.backend


def test_pruned_speedup_on_selective_queries(benchmark, clustered_setup):
    """>= 3x on selective queries over locality-structured data (acceptance)."""
    case_base, requests = clustered_setup

    def measure():
        return _measure_pair(case_base, requests, runs=5)

    off_seconds, on_seconds, backend = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = off_seconds / on_seconds
    pruned_fraction = backend.prefilter_rows_pruned / backend.prefilter_rows_total
    _record_baseline(
        "pruned_speedup_selective",
        {
            "implementations": TOTAL_ROWS,
            "types": CLUSTERED_TYPES,
            "requests": len(requests),
            "off_seconds": round(off_seconds, 4),
            "bounds_seconds": round(on_seconds, 4),
            "speedup": round(speedup, 2),
            "pruned_fraction": round(pruned_fraction, 4),
            "speedup_gate": SPEEDUP_GATE,
            "gated": True,
        },
    )
    assert pruned_fraction > 0.5
    assert speedup >= SPEEDUP_GATE


def test_prefilter_overhead_bounded_on_uniform_data(benchmark, workload_setup):
    """Worst case (nothing provably prunable): bounded overhead, same bits."""
    case_base, requests = workload_setup
    assert len(requests) >= 8

    def measure():
        return _measure_pair(case_base, requests, runs=5)

    off_seconds, on_seconds, backend = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = on_seconds / off_seconds
    _record_baseline(
        "prefilter_overhead_uniform",
        {
            "implementations": TOTAL_ROWS,
            "types": WORKLOAD_TYPES,
            "requests": len(requests),
            "off_seconds": round(off_seconds, 4),
            "bounds_seconds": round(on_seconds, 4),
            "overhead_factor": round(overhead, 2),
            "rows_screened": backend.prefilter_rows_total,
            "overhead_gate": OVERHEAD_GATE,
            "gated": True,
        },
    )
    assert backend.prefilter_rows_total > 0
    assert overhead <= OVERHEAD_GATE


def test_memmap_reopen_is_constant_time(benchmark, workload_setup, tmp_path):
    """Reopen beats re-encode by 3x+ and stays flat across a 4x size change."""
    case_base, requests = workload_setup
    quarter_rows = (TOTAL_ROWS // 4 // WORKLOAD_TYPES) * WORKLOAD_TYPES
    quarter_workload = HugeCaseBaseWorkload(
        implementations=quarter_rows, types=WORKLOAD_TYPES, seed=7
    )
    quarter = build_case_base([quarter_workload])
    # The reference side reads tables encoded from the live implementations
    # before any store exists, so it cannot see the reopened files.
    case_base.type_tables.invalidate()
    reference = RetrievalEngine(case_base, backend="vectorized")
    expected = [reference.retrieve_n_best(request, 5) for request in requests[:4]]

    def encode():
        tables = case_base.type_tables
        tables.invalidate()  # encode every type afresh
        return [tables.table(t.type_id) for t in case_base.sorted_types()]

    def measure():
        encode_seconds, _ = gating.best_of(1, encode)
        store = ImageStore(tmp_path / "full")
        save_seconds, _ = gating.best_of(1, lambda: store.save(case_base))  # reuses the tables
        reopen_seconds, reopened = gating.best_of(3, lambda: store.open(case_base))
        quarter_store = ImageStore(tmp_path / "quarter")
        quarter_store.save(quarter)
        quarter_seconds, _ = gating.best_of(3, lambda: quarter_store.open(quarter))
        return encode_seconds, save_seconds, reopen_seconds, quarter_seconds, reopened

    encode_seconds, save_seconds, reopen_seconds, quarter_seconds, reopened = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    assert reopened is not None

    # The reopened tables serve bit-identically to a fresh encode.
    adopted = RetrievalEngine(case_base, backend="vectorized")
    assert reopened.install(adopted)
    observed = [adopted.retrieve_n_best(request, 5) for request in requests[:4]]
    for request in requests[:4]:
        assert case_base.type_tables.types[request.type_id] is reopened.tables[request.type_id]
    assert _slim_view(observed) == _slim_view(expected)
    assert [result.statistics for result in observed] == [
        result.statistics for result in expected
    ]

    scaling = reopen_seconds / max(quarter_seconds, 1e-9)
    _record_baseline(
        "memmap_reopen_o1",
        {
            "implementations": TOTAL_ROWS,
            "types": WORKLOAD_TYPES,
            "encode_seconds": round(encode_seconds, 4),
            "save_seconds": round(save_seconds, 4),
            "reopen_seconds": round(reopen_seconds, 4),
            "quarter_reopen_seconds": round(quarter_seconds, 4),
            "reopen_vs_encode": round(encode_seconds / max(reopen_seconds, 1e-9), 1),
            "size_scaling_factor": round(scaling, 2),
            "reopen_vs_encode_gate": REOPEN_VS_ENCODE_GATE,
            "reopen_scaling_gate": REOPEN_SCALING_GATE,
            "gated": True,
        },
    )
    assert reopen_seconds * REOPEN_VS_ENCODE_GATE <= encode_seconds
    assert scaling <= REOPEN_SCALING_GATE
