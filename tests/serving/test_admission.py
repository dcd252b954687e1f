"""Admission control: exact service times, the deadline gate and degradation."""

import pytest

from repro.core import ReproError, paper_case_base
from repro.hardware import HardwareRetrievalUnit
from repro.serving import (
    AdmissionController,
    AdmissionVerdict,
    TimedRequest,
    synthetic_trace,
)
from repro.software import SoftwareRetrievalUnit
from repro.tools import CaseBaseGenerator, table3_spec


@pytest.fixture(scope="module")
def table3():
    generator = CaseBaseGenerator(table3_spec(), seed=2004)
    case_base = generator.case_base()
    return case_base, synthetic_trace(case_base, 48, mean_interarrival_us=5.0, seed=1)


class TestServiceTimes:
    def test_hardware_times_are_the_cycle_models_exact_times(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        requests = [entry.request for entry in trace[:6]]
        clock_mhz = controller.hardware_unit.config.clock_mhz
        times = [(count, count / clock_mhz) for count in controller.hardware_cycles(requests)]
        reference = HardwareRetrievalUnit(case_base).run_batch(requests)
        assert times == [(result.cycles, result.time_us) for result in reference]

    def test_software_times_are_the_cost_models_exact_times(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        requests = [entry.request for entry in trace[:6]]
        clock_mhz = controller._software_cost_model.clock_mhz
        times = [(count, count / clock_mhz) for count in controller.software_cycles(requests)]
        reference = SoftwareRetrievalUnit(case_base).run_batch(requests)
        assert times == [(result.cycles, result.time_us) for result in reference]


class TestDeadlineGate:
    def test_no_deadline_admits_everything_to_hardware(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        decisions = controller.assess_batch(trace, trace[-1].arrival_us)
        assert all(
            decision.verdict is AdmissionVerdict.ADMIT_HARDWARE for decision in decisions
        )

    def test_zero_deadline_rejects_everything(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        decisions = controller.assess_batch(
            trace, trace[-1].arrival_us, default_deadline_us=0.0
        )
        assert all(
            decision.verdict is AdmissionVerdict.REJECT_DEADLINE for decision in decisions
        )
        assert all(decision.reason for decision in decisions)

    def test_tight_deadline_produces_admit_degrade_and_reject(self, table3):
        """A saturated hardware queue overflows onto the software path."""
        case_base, trace = table3
        controller = AdmissionController(case_base)
        close_us = trace[-1].arrival_us
        decisions = controller.assess_batch(trace, close_us, default_deadline_us=300.0)
        verdicts = {decision.verdict for decision in decisions}
        assert AdmissionVerdict.ADMIT_HARDWARE in verdicts
        assert AdmissionVerdict.DEGRADE_SOFTWARE in verdicts
        assert AdmissionVerdict.REJECT_DEADLINE in verdicts
        # Every non-rejected decision's modelled latency meets the deadline.
        for decision in decisions:
            if decision.verdict.admitted:
                assert decision.latency_us <= 300.0

    def test_server_occupancy_accumulates_in_batch_order(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        decisions = controller.assess_batch(trace[:8], trace[7].arrival_us)
        occupancy = 0.0
        for decision in decisions:
            assert decision.queue_us == occupancy
            occupancy += decision.service_us

    def test_degradation_can_be_disabled(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base, degrade_to_software=False)
        decisions = controller.assess_batch(
            trace, trace[-1].arrival_us, default_deadline_us=300.0
        )
        assert all(
            decision.verdict is not AdmissionVerdict.DEGRADE_SOFTWARE
            for decision in decisions
        )

    def test_per_request_deadline_overrides_the_default(self, table3):
        case_base, trace = table3
        controller = AdmissionController(case_base)
        strict = TimedRequest(
            arrival_us=trace[0].arrival_us,
            request=trace[0].request,
            deadline_us=0.0,
        )
        decisions = controller.assess_batch(
            [strict, trace[1]], trace[1].arrival_us, default_deadline_us=None
        )
        assert decisions[0].verdict is AdmissionVerdict.REJECT_DEADLINE
        assert decisions[1].verdict is AdmissionVerdict.ADMIT_HARDWARE

    def test_empty_batch_yields_no_decisions(self, table3):
        case_base, _ = table3
        assert AdmissionController(case_base).assess_batch([], 0.0) == []


class TestStepwiseParity:
    def test_stepwise_and_vectorized_predictions_agree(self, table3):
        """The gate decisions are engine-independent (cycle counts are exact)."""
        case_base, trace = table3
        batch = trace[:12]
        close_us = batch[-1].arrival_us
        kwargs = dict(default_deadline_us=500.0)
        vectorized = AdmissionController(case_base, cycle_engine="vectorized")
        stepwise = AdmissionController(case_base, cycle_engine="stepwise")
        assert (
            vectorized.assess_batch(batch, close_us, **kwargs)
            == stepwise.assess_batch(batch, close_us, **kwargs)
        )


class TestValidation:
    def test_rejects_bad_clock_and_engine(self):
        with pytest.raises(ReproError, match="clock_mhz"):
            AdmissionController(paper_case_base(), clock_mhz=0.0)
        with pytest.raises(ReproError, match="cycle engine"):
            AdmissionController(paper_case_base(), cycle_engine="warp")

    def test_hardware_config_clock_drives_both_servers(self):
        """An explicit hardware_config keeps the software model at its clock."""
        from repro.hardware import HardwareConfig

        controller = AdmissionController(
            paper_case_base(),
            clock_mhz=66.0,
            hardware_config=HardwareConfig(clock_mhz=33.0),
        )
        assert controller.clock_mhz == 33.0
        assert controller._software_cost_model.clock_mhz == 33.0
        request = synthetic_trace(paper_case_base(), 1, seed=0)[0].request
        hw_cycles, = controller.hardware_cycles([request])
        sw_cycles, = controller.software_cycles([request])
        hw_us = hw_cycles / controller.hardware_unit.config.clock_mhz
        sw_us = sw_cycles / controller._software_cost_model.clock_mhz
        assert hw_us == hw_cycles / 33.0
        assert sw_us == sw_cycles / 33.0


class TestOutOfCoreAdmission:
    """Case bases past 16-bit CB-MEM addressing: no modelled server exists.

    The host engine serves them *unpriced* -- admission reports why, checks
    only the observable wait against the deadline, and never crashes the
    serving stack (ISSUE 10 regression: ``serve-trace --workload
    huge-casebase`` used to die in the hardware unit's image encoder).
    """

    @pytest.fixture(scope="class")
    def huge(self):
        from repro.tools import GeneratorSpec

        spec = GeneratorSpec(
            type_count=4,
            implementations_per_type=800,
            attributes_per_implementation=10,
            attribute_type_count=10,
        )
        case_base = CaseBaseGenerator(spec, seed=6).case_base()
        return case_base, synthetic_trace(
            case_base, 12, mean_interarrival_us=5.0, seed=2
        )

    def test_hardware_unit_reports_unavailable(self, huge):
        case_base, trace = huge
        controller = AdmissionController(case_base)
        assert controller.hardware_unit is None
        assert "does not fit" in controller.hardware_unavailable_reason
        with pytest.raises(ReproError, match="does not fit"):
            controller.hardware_cycles([trace[0].request])

    def test_unpriced_serving_admits_within_the_wait_budget(self, huge):
        case_base, trace = huge
        controller = AdmissionController(case_base)
        decisions = controller.assess_batch(
            trace, close_us=trace[-1].arrival_us, default_deadline_us=1e9
        )
        assert len(decisions) == len(trace)
        for decision in decisions:
            assert decision.verdict is AdmissionVerdict.DEGRADE_SOFTWARE
            assert decision.cycles == 0 and decision.service_us == 0.0
            assert "does not fit" in decision.reason
        # the software model was probed exactly once and remembered why
        assert "does not fit" in controller.software_unavailable_reason

    def test_blown_wait_still_rejects(self, huge):
        case_base, trace = huge
        controller = AdmissionController(case_base)
        close_us = trace[-1].arrival_us + 100.0  # every entry has waited
        decisions = controller.assess_batch(
            trace, close_us=close_us, default_deadline_us=50.0
        )
        assert all(
            decision.verdict is AdmissionVerdict.REJECT_DEADLINE
            for decision in decisions
        )
