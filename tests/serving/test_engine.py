"""End-to-end serving engine tests, including the issue's edge cases."""

import json

import pytest

from repro.allocation import FeasibilityChecker
from repro.apps import build_case_base, build_platform, build_scenario
from repro.core import (
    BoundsTable,
    CaseBase,
    ExecutionTarget,
    FunctionRequest,
    Implementation,
    ReproError,
    RetrievalEngine,
    paper_case_base,
)
from repro.core.backends import VectorizedBackend
from repro.core.columnar import TypeTable
from repro.serving import (
    ServingConfig,
    ServingEngine,
    ServingSpec,
    ServingStatus,
    synthetic_trace,
    trace_from_requests,
    trace_from_workloads,
)
from repro.tools import CaseBaseGenerator, table3_spec


@pytest.fixture(scope="module")
def table3():
    generator = CaseBaseGenerator(table3_spec(), seed=2004)
    case_base = generator.case_base()
    return case_base, synthetic_trace(case_base, 40, mean_interarrival_us=20.0, seed=2)


class TestReplayBasics:
    def test_empty_trace_produces_an_empty_report(self):
        report = ServingEngine(paper_case_base()).serve([])
        assert report.served == []
        assert report.metrics["requests"] == 0
        assert report.metrics["batches"]["count"] == 0
        assert report.metrics["rejection_rate"] == 0.0

    def test_single_request_trace(self, table3):
        case_base, trace = table3
        report = ServingEngine(case_base).serve(trace[:1])
        assert len(report.served) == 1
        record = report.served[0]
        assert record.status is ServingStatus.SERVED_HARDWARE
        assert record.result is not None and record.result.best_id is not None
        assert record.cycles > 0
        assert record.latency_us == pytest.approx(
            record.wait_us + record.queue_us + record.service_us
        )

    def test_records_stay_in_trace_order_with_full_coverage(self, table3):
        case_base, trace = table3
        report = ServingEngine(
            case_base, config=ServingConfig(max_batch=8, max_wait_us=100.0)
        ).serve(trace)
        assert [record.index for record in report.served] == list(range(len(trace)))
        assert report.metrics["requests"] == len(trace)

    def test_rankings_match_the_reference_engine(self, table3):
        from repro.core import RetrievalEngine

        case_base, trace = table3
        report = ServingEngine(
            case_base, config=ServingConfig(n_best=3)
        ).serve(trace)
        expected = RetrievalEngine(case_base).retrieve_batch(
            [entry.request for entry in trace], n=3
        )
        for record, expected_result in zip(report.served, expected):
            assert record.result.ids() == expected_result.ids()

    def test_batch_of_one_serves_every_request_individually(self, table3):
        case_base, trace = table3
        report = ServingEngine(
            case_base, config=ServingConfig(max_batch=1)
        ).serve(trace[:10])
        assert report.metrics["batches"]["histogram"] == {1: 10}
        assert report.metrics["served"] == 10


class TestDeadlines:
    def test_zero_deadline_rejects_the_whole_trace(self, table3):
        case_base, trace = table3
        report = ServingEngine(
            case_base, config=ServingConfig(deadline_us=0.0)
        ).serve(trace)
        assert report.metrics["statuses"] == {"rejected_deadline": len(trace)}
        assert report.metrics["rejection_rate"] == 1.0
        assert all(record.result is None for record in report.served)
        assert all(record.reason for record in report.served)

    def test_tight_deadline_mixes_hw_sw_and_rejections(self, table3):
        case_base, _ = table3
        trace = synthetic_trace(case_base, 64, mean_interarrival_us=5.0, seed=1)
        report = ServingEngine(
            case_base,
            config=ServingConfig(max_batch=64, max_wait_us=1e6, deadline_us=400.0),
        ).serve(trace)
        statuses = report.metrics["statuses"]
        assert statuses.get("served_hardware", 0) > 0
        assert statuses.get("served_software", 0) > 0
        assert statuses.get("rejected_deadline", 0) > 0
        for record in report.served:
            if record.status.served:
                assert record.latency_us <= 400.0

    def test_degraded_requests_return_the_same_rankings(self, table3):
        case_base, _ = table3
        trace = synthetic_trace(case_base, 64, mean_interarrival_us=5.0, seed=1)
        constrained = ServingEngine(
            case_base,
            config=ServingConfig(max_batch=64, max_wait_us=1e6, deadline_us=400.0),
        ).serve(trace)
        unconstrained = ServingEngine(
            case_base, config=ServingConfig(max_batch=64, max_wait_us=1e6)
        ).serve(trace)
        for record, reference in zip(constrained.served, unconstrained.served):
            if record.status.served:
                assert record.result.ids() == reference.result.ids()


class TestRetrieval:
    """Serving retrieves through one engine over the whole case base."""

    @staticmethod
    def _ranking(result):
        return [(entry.implementation_id, entry.similarity) for entry in result.ranked]

    def test_derived_bounds_growth_rebuilds_the_engine(self):
        # No explicit bounds table: the case base derives one from its
        # contents, and an engine pins the table it was built with.
        case_base = CaseBase()
        function_type = case_base.add_type(1, name="filter")
        for implementation_id, values in ((1, (10, 20)), (2, (30, 5)), (3, (20, 12))):
            function_type.add(Implementation(
                implementation_id, ExecutionTarget.GPP, dict(zip((1, 2), values))
            ))
        request = FunctionRequest(1, [(1, 18, 1.0), (2, 14, 2.0)])
        engine = ServingEngine(case_base, config=ServingConfig(n_best=3))
        engine.serve(trace_from_requests([request]))
        pinned = engine.retriever.bounds
        # A case outside attribute 1's range moves the derived table.
        case_base.add_implementation(
            1, Implementation(4, ExecutionTarget.FPGA, {1: 400, 2: 10})
        )
        [record] = engine.serve(trace_from_requests([request])).served
        fresh = RetrievalEngine(case_base, backend="naive").retrieve(request, n=3)
        stale = RetrievalEngine(case_base, bounds=pinned).retrieve(request, n=3)
        assert self._ranking(record.result) == self._ranking(fresh)
        assert self._ranking(fresh) != self._ranking(stale)
        assert engine._retriever_tracker.rebuild_count == 1

    def test_prefilter_metrics_track_the_backend_counters(self, monkeypatch):
        # Shrink the screen's thresholds so a 256-row type prunes blocks.
        monkeypatch.setattr(TypeTable, "BLOCK_ROWS", 8)
        monkeypatch.setattr(VectorizedBackend, "PREFILTER_MIN_ROWS", 16)
        bounds = BoundsTable()
        bounds.define(1, 0, 1024)
        bounds.define(2, 0, 1024)
        case_base = CaseBase(bounds=bounds)
        function_type = case_base.add_type(1, name="clustered")
        for index in range(256):
            function_type.add(Implementation(
                index + 1, ExecutionTarget.GPP, {1: index * 4, 2: 1024 - index * 4}
            ))
        requests = [
            FunctionRequest(1, [(1, 1020 - 8 * k), (2, 4 + 8 * k)]) for k in range(8)
        ]
        engine = ServingEngine(
            case_base, config=ServingConfig(prefilter="bounds", n_best=3, max_batch=4)
        )
        report = engine.serve(trace_from_requests(requests, interarrival_us=0.0))
        assert report.metrics["batches"]["count"] == 2
        backend = engine.retriever.backend
        registry = engine.observability.registry
        rows = registry.get("repro_prefilter_rows_total").values()
        assert backend.prefilter_rows_pruned > 0
        assert rows[("pruned",)] == backend.prefilter_rows_pruned
        assert rows[("evaluated",)] == (
            backend.prefilter_rows_total - backend.prefilter_rows_pruned
        )
        assert registry.get("repro_prefilter_requests_total").values() == {
            (): backend.prefilter_requests
        }
        assert backend.prefilter_requests == len(requests)


class TestRobustness:
    def test_unservable_requests_fail_without_aborting_the_replay(self, table3):
        case_base, _ = table3
        good = synthetic_trace(case_base, 4, seed=8)
        bad = FunctionRequest(9999, [(1, 10)])
        trace = trace_from_requests(
            [entry.request for entry in good[:2]] + [bad]
            + [entry.request for entry in good[2:]],
            interarrival_us=10.0,
        )
        report = ServingEngine(case_base).serve(trace)
        statuses = [record.status for record in report.served]
        assert statuses.count(ServingStatus.FAILED) == 1
        assert statuses.count(ServingStatus.SERVED_HARDWARE) == 4
        failed = report.served[2]
        assert "not in the case base" in failed.reason

    def test_unencodable_value_fails_without_aborting_the_replay(self, table3):
        """A non-integer constraint value (reachable via a requests JSON file)
        must produce a FAILED record, not abort the whole replay.  (A value
        that is not a number at all is refused when the request is built.)"""
        case_base, _ = table3
        good = synthetic_trace(case_base, 3, seed=8)
        bad = FunctionRequest(1, [(1, 16.5)])
        trace = trace_from_requests(
            [good[0].request, bad, good[1].request, good[2].request],
            interarrival_us=10.0,
        )
        report = ServingEngine(case_base).serve(trace)
        statuses = [record.status for record in report.served]
        assert statuses[1] is ServingStatus.FAILED
        assert statuses.count(ServingStatus.SERVED_HARDWARE) == 3
        assert report.served[1].reason

    def test_infeasible_platform_rejects_via_allocation_verdicts(self):
        case_base = build_case_base()
        # A 1 mW budget is below every implementation's power draw, so the
        # allocation-layer verdict is INFEASIBLE_POWER for every candidate.
        system = build_platform(fpga_count=1, power_budget_mw=1.0)
        trace = trace_from_workloads(duration_us=500_000.0, seed=3)
        report = ServingEngine(
            case_base, feasibility=FeasibilityChecker(system)
        ).serve(trace)
        assert report.metrics["statuses"] == {
            "rejected_infeasible": len(trace)
        }
        assert all(record.reason for record in report.served)

    def test_report_round_trips_through_json(self, table3):
        case_base, trace = table3
        report = ServingEngine(case_base).serve(trace[:6])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["metrics"]["requests"] == 6
        assert len(payload["requests"]) == 6
        assert payload["requests"][0]["ranking"]

    def test_config_validation(self):
        with pytest.raises(ReproError, match="n_best"):
            ServingConfig(n_best=0)
        with pytest.raises(ReproError, match="deadline_us"):
            ServingConfig(deadline_us=-1.0)


class TestApplicationApiPlumbing:
    def test_serving_engine_shares_the_managers_case_base_and_feasibility(self):
        scenario = build_scenario()
        engine = scenario.application_api.serving_engine(ServingSpec(n_best=2))
        assert engine.case_base is scenario.manager.case_base
        assert engine.admission.feasibility is scenario.manager.feasibility
        trace = trace_from_workloads(duration_us=500_000.0, seed=5)
        report = engine.serve(trace)
        assert report.metrics["served"] == len(trace)
        assert report.config.n_best == 2

    def test_cluster_engine_shares_the_managers_stack(self):
        scenario = build_scenario()
        engine = scenario.application_api.cluster_engine(
            ServingSpec(devices=2, software_workers=1, n_best=2)
        )
        assert engine.case_base is scenario.manager.case_base
        assert engine.fleet.case_base is scenario.manager.case_base
        assert engine.admission.feasibility is scenario.manager.feasibility
        assert engine.fleet.repository is scenario.manager.repository
        assert len(engine.fleet) == 3
        trace = trace_from_workloads(duration_us=500_000.0, seed=5)
        report = engine.serve(trace)
        assert report.metrics["served"] == len(trace)
        assert report.metrics["cluster"]["devices"] == 3


class TestCrossBatchBacklog:
    def test_sustained_overload_rejects_even_one_at_a_time(self):
        """Server occupancy carries across batches: a request stream arriving
        faster than the hardware unit serves it must eventually miss its
        deadline even when every batch holds a single request."""
        case_base = paper_case_base()
        request = synthetic_trace(case_base, 1, seed=0)[0].request
        admission = ServingEngine(case_base).admission
        clock_mhz = admission.hardware_unit.config.clock_mhz
        hw_time = admission.hardware_cycles([request])[0] / clock_mhz
        # Arrivals 10x faster than the service rate; deadline allows a few
        # requests' worth of queueing, so the head of the stream is served
        # and the saturated tail is rejected.
        trace = trace_from_requests(
            [request] * 40,
            interarrival_us=hw_time / 10.0,
            deadline_us=5.0 * hw_time,
        )
        report = ServingEngine(
            case_base,
            config=ServingConfig(max_batch=1, degrade_to_software=False),
        ).serve(trace)
        statuses = report.metrics["statuses"]
        assert statuses.get("served_hardware", 0) > 0
        assert statuses.get("rejected_deadline", 0) > 0
        # Physical latencies: per-server completions never overlap, so each
        # served request's modelled latency is at least its service time and
        # they are non-decreasing while the backlog grows monotonically.
        served = [r for r in report.served if r.status.served]
        assert all(r.latency_us >= r.service_us for r in served)

    def test_backlog_drains_between_sparse_batches(self):
        """A trace slower than the service rate never accumulates backlog."""
        case_base = paper_case_base()
        request = synthetic_trace(case_base, 1, seed=0)[0].request
        admission = ServingEngine(case_base).admission
        clock_mhz = admission.hardware_unit.config.clock_mhz
        hw_time = admission.hardware_cycles([request])[0] / clock_mhz
        trace = trace_from_requests(
            [request] * 10, interarrival_us=hw_time * 10.0, deadline_us=hw_time * 2.0
        )
        report = ServingEngine(
            case_base, config=ServingConfig(max_batch=1, max_wait_us=0.0)
        ).serve(trace)
        assert report.metrics["statuses"] == {"served_hardware": 10}
        assert all(record.queue_us == 0.0 for record in report.served)


class TestAdmissionModelsTheConfiguredUnit:
    def test_admission_unit_follows_the_configured_ranking_depth(self):
        """The modelled hardware unit must be the n_best the engine delivers."""
        engine = ServingEngine(paper_case_base(), config=ServingConfig(n_best=3))
        assert engine.admission.hardware_unit.config.n_best == 3

    def test_explicit_hardware_config_is_widened_not_narrowed(self):
        from repro.hardware import HardwareConfig

        widened = ServingEngine(
            paper_case_base(),
            config=ServingConfig(
                n_best=4, hardware_config=HardwareConfig(n_best=2)
            ),
        )
        assert widened.admission.hardware_unit.config.n_best == 4
        kept = ServingEngine(
            paper_case_base(),
            config=ServingConfig(
                n_best=1, hardware_config=HardwareConfig(n_best=5)
            ),
        )
        assert kept.admission.hardware_unit.config.n_best == 5
