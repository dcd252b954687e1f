"""HugeCaseBaseWorkload: reserved-range contribution, traffic, end-to-end.

Small-scale unit coverage of the ISSUE-10 scale driver; the 10^5-row gates
live in ``benchmarks/test_bench_hugecb.py``.
"""

import random

import pytest

from repro.apps import HugeCaseBaseWorkload, build_case_base, default_workloads
from repro.apps.schema import platform_bounds, platform_schema
from repro.core import RetrievalEngine
from repro.core.case_base import CaseBase
from repro.core.exceptions import ReproError
from repro.serving.loadgen import trace_from_workloads

SMALL = dict(implementations=64, types=2, attributes=4, seed=3)


@pytest.fixture()
def workload():
    return HugeCaseBaseWorkload(**SMALL)


class TestConstruction:
    def test_counts_must_be_positive(self):
        with pytest.raises(ReproError, match="positive"):
            HugeCaseBaseWorkload(implementations=0)
        with pytest.raises(ReproError, match="positive"):
            HugeCaseBaseWorkload(types=0)

    def test_implementations_must_split_evenly(self):
        with pytest.raises(ReproError, match="do not split evenly"):
            HugeCaseBaseWorkload(implementations=100, types=3)

    def test_per_type_id_range_is_16_bit(self):
        with pytest.raises(ReproError, match="16-bit"):
            HugeCaseBaseWorkload(implementations=2 * 0x10000, types=2)

    def test_interarrival_must_be_positive(self):
        with pytest.raises(ReproError, match="mean_interarrival_us"):
            HugeCaseBaseWorkload(**{**SMALL, "mean_interarrival_us": 0.0})


class TestContribution:
    def test_synthetic_ids_stay_clear_of_the_platform_ranges(self, workload):
        case_base = build_case_base(default_workloads() + [workload])
        platform_attribute_ids = {
            attribute.attribute_id for attribute in platform_schema()
        }
        synthetic_types = [
            function_type.type_id
            for function_type in case_base.sorted_types()
            if function_type.type_id > HugeCaseBaseWorkload.TYPE_ID_BASE
        ]
        assert len(synthetic_types) == SMALL["types"]
        for type_id in synthetic_types:
            for implementation in case_base.get_type(type_id):
                assert all(
                    attribute_id > HugeCaseBaseWorkload.ATTRIBUTE_ID_BASE
                    for attribute_id in implementation.attribute_ids()
                )
                assert not set(implementation.attribute_ids()) & platform_attribute_ids
        case_base.validate()  # schema + bounds cover the extension

    def test_contribution_is_deterministic(self, workload):
        first = build_case_base([workload])
        second = build_case_base([HugeCaseBaseWorkload(**SMALL)])
        for function_type in first.sorted_types():
            twin = second.get_type(function_type.type_id)
            for implementation in function_type:
                assert (
                    twin.get(implementation.implementation_id).attributes
                    == implementation.attributes
                )

    def test_schema_extension_tolerates_predefined_attributes(self, workload):
        """Re-defining a synthetic attribute would raise SchemaError; the
        contribute guards must skip IDs another source already registered."""
        case_base = CaseBase(schema=platform_schema(), bounds=platform_bounds())
        shifted = HugeCaseBaseWorkload.ATTRIBUTE_ID_BASE + 1
        case_base.schema.define(shifted, "synthetic_attribute_1")
        case_base.bounds.define(shifted, 0, 1000)
        workload.contribute(case_base)
        case_base.validate()

    def test_total_library_size(self, workload):
        case_base = build_case_base([workload])
        synthetic = [
            function_type
            for function_type in case_base.sorted_types()
            if function_type.type_id > HugeCaseBaseWorkload.TYPE_ID_BASE
        ]
        assert sum(len(t) for t in synthetic) == SMALL["implementations"]


class TestTraffic:
    def test_requests_constrain_only_synthetic_names(self, workload):
        requests = workload.requests(random.Random(1), duration_us=100_000.0)
        assert requests
        for request in requests:
            assert request.type_id > HugeCaseBaseWorkload.TYPE_ID_BASE
            assert len(request.constraints) == workload.CONSTRAINTS_PER_REQUEST
            assert all(
                name.startswith("synthetic_attribute_")
                for name in request.constraints
            )
            assert set(request.weights) == set(request.constraints)

    def test_traffic_is_deterministic_in_the_rng(self, workload):
        first = workload.requests(random.Random(9), duration_us=50_000.0)
        second = workload.requests(random.Random(9), duration_us=50_000.0)
        assert [(r.issue_time_us, r.type_id, r.constraints) for r in first] == [
            (r.issue_time_us, r.type_id, r.constraints) for r in second
        ]


class TestEndToEnd:
    def test_trace_resolves_and_serves_bit_identically_across_prefilters(
        self, workload
    ):
        case_base = build_case_base([workload])
        trace = trace_from_workloads(
            [workload], duration_us=200_000.0, seed=3, schema=case_base.schema
        )
        assert trace
        off = RetrievalEngine(case_base, backend="vectorized", prefilter="off")
        bounds = RetrievalEngine(case_base, backend="vectorized", prefilter="bounds")
        for entry in trace[:8]:
            expected = off.retrieve_n_best(entry.request, 3)
            observed = bounds.retrieve_n_best(entry.request, 3)
            assert [
                (e.implementation_id, e.similarity) for e in observed.ranked
            ] == [(e.implementation_id, e.similarity) for e in expected.ranked]

    def test_out_of_core_library_serves_software_through_the_engine(self):
        """Past 16-bit CB-MEM addressing the serving stack must not crash:
        the host engine serves everything software-side, unpriced."""
        from repro.serving import ServingSpec

        workload = HugeCaseBaseWorkload(
            implementations=4096, types=2, attributes=10, seed=5
        )
        case_base = build_case_base([workload])
        trace = trace_from_workloads(
            [workload], duration_us=100_000.0, seed=5, schema=case_base.schema
        )
        assert trace
        spec = ServingSpec(prefilter="bounds")
        engine = spec.build_engine(case_base)
        report = engine.serve(trace)
        assert engine.admission.hardware_unit is None
        statuses = {record.status.value for record in report.served}
        assert statuses == {"served_software"}
        assert all(ranking for ranking in report.rankings())

    def test_cluster_spec_serves_an_unencodable_case_base(self):
        """A fleet over a case base no pricing model encodes serves it with
        the single node's statuses instead of crashing at fleet build."""
        from repro.serving import ServingSpec, synthetic_trace
        from repro.tools import CaseBaseGenerator, GeneratorSpec

        case_base = CaseBaseGenerator(
            GeneratorSpec(
                type_count=4,
                implementations_per_type=800,
                attributes_per_implementation=10,
                attribute_type_count=10,
            ),
            seed=6,
        ).case_base()
        trace = synthetic_trace(case_base, 24, mean_interarrival_us=5.0, seed=2)
        spec = ServingSpec(random=24, deadline_us=20.0, max_batch=8)
        single = spec.build_engine(case_base).serve(trace)
        engine = spec.replace(cluster=True).build_engine(case_base)
        cluster = engine.serve(trace)
        assert engine.admission.hardware_unit is None
        statuses = [record.status for record in cluster.served]
        assert statuses == [record.status for record in single.served]
        assert {status.value for status in statuses} == {
            "served_software", "rejected_deadline"
        }
        assert cluster.rankings() == single.rankings()

    def test_unextended_platform_schema_cannot_resolve_the_constraints(
        self, workload
    ):
        case_base = build_case_base([workload])
        with pytest.raises(ReproError):
            trace_from_workloads([workload], duration_us=200_000.0, seed=3)
        # the served schema is the one that works
        trace = trace_from_workloads(
            [workload], duration_us=200_000.0, seed=3, schema=case_base.schema
        )
        assert trace
