"""Graceful degradation: worker health, quarantine, requeue, stream retries.

The resilience contract for the cluster router: injected faults may change
*capacity* (what gets served, when) but never *answers* -- every request a
faulty fleet serves must carry rankings bit-identical to a healthy
single-device replay, and every request it cannot serve must end in an
explicit terminal status, never a silent wrong answer.
"""

import pytest

from repro.core import ReproError
from repro.platform import DeviceFleet
from repro.resilience import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.serving import (
    ServingConfig,
    ServingEngine,
    ServingStatus,
    WorkerHealth,
    synthetic_trace,
)
from repro.serving.admission import HEALTHY, QUARANTINED, SUSPECT
from repro.tools import CaseBaseGenerator, GeneratorSpec


@pytest.fixture
def case_base():
    return CaseBaseGenerator(
        GeneratorSpec(
            type_count=6,
            implementations_per_type=8,
            attributes_per_implementation=8,
            attribute_type_count=10,
        ),
        seed=7,
    ).case_base()


def _trace(case_base, count=60, interarrival=150.0, seed=3):
    return synthetic_trace(
        case_base, count, mean_interarrival_us=interarrival, seed=seed
    )


def _injector(*faults, seed=2004):
    return FaultInjector(FaultPlan(seed=seed, faults=tuple(faults)))


class TestWorkerHealthUnit:
    def test_lifecycle_healthy_suspect_quarantined(self):
        health = WorkerHealth(["a", "b"], quarantine_after=2,
                              probe_interval_us=1000.0)
        assert health.states == {"a": HEALTHY, "b": HEALTHY}
        health.observe_failure("a", 100.0)
        assert health.states["a"] == SUSPECT
        assert health.routable("a", 100.0)
        health.observe_failure("a", 200.0)
        assert health.states["a"] == QUARANTINED
        assert not health.routable("a", 200.0)
        assert health.states["b"] == HEALTHY

    def test_probe_readmission(self):
        health = WorkerHealth(["a"], quarantine_after=1, probe_interval_us=1000.0)
        health.observe_failure("a", 100.0)
        assert not health.routable("a", 500.0)
        # Probe window opens at quarantine + interval; routable again then.
        assert health.routable("a", 1100.0)
        # Early recovery observations inside the quarantine are ignored...
        health.observe_recovery("a", 500.0)
        assert health.states["a"] == QUARANTINED
        # ...but a recovery observed at probe time re-admits for good.
        health.observe_recovery("a", 1100.0)
        assert health.states["a"] == HEALTHY
        assert health.failures["a"] == 0

    def test_counts(self):
        health = WorkerHealth(["a", "b", "c"], quarantine_after=1)
        health.observe_failure("b", 0.0)
        assert health.counts() == {HEALTHY: 2, SUSPECT: 0, QUARANTINED: 1}

    def test_validation(self):
        with pytest.raises(ReproError):
            WorkerHealth(["a"], quarantine_after=0)
        with pytest.raises(ReproError):
            WorkerHealth(["a"], probe_interval_us=-1.0)


class TestQuarantineAndRequeue:
    def _faulty_report(self, case_base, trace, config, *faults):
        fleet = DeviceFleet.build(
            case_base, hardware_devices=2, software_devices=0
        )
        engine = ServingEngine(
            case_base, fleet=fleet, config=config, fault_injector=_injector(*faults)
        )
        return engine.serve(trace), engine

    def test_crash_window_quarantines_requeues_and_recovers(self, case_base):
        trace = _trace(case_base, count=90)
        config = ServingConfig(max_batch=4)
        report, engine = self._faulty_report(
            case_base, trace, config,
            FaultSpec(kind="worker_crash", target="*", at_us=2000.0,
                      duration_us=1500.0),
        )
        resilience = report.metrics["cluster"]["resilience"]
        assert resilience["requeues"] > 0
        assert sum(resilience["health"].values()) == 2
        # The outage ended inside the trace: the probe re-admitted everyone.
        assert resilience["worker_states"] == {
            worker.name: HEALTHY for worker in engine.fleet.workers
        }
        # No silent outcomes: every record has a terminal enum status, and
        # everything unserved says why.
        assert len(report.served) == len(trace)
        for record in report.served:
            assert isinstance(record.status, ServingStatus)
            if not record.status.served:
                assert record.reason
        statuses = {record.status for record in report.served}
        assert ServingStatus.SERVED_HARDWARE in statuses
        assert ServingStatus.REJECTED_DEADLINE in statuses  # requeue budget

    def test_served_common_set_is_bit_identical_with_healthy_replay(
        self, case_base
    ):
        """Faults shift capacity, never answers (the PR 5 compare idiom)."""
        trace = _trace(case_base)
        config = ServingConfig(max_batch=4)
        faulty, _ = self._faulty_report(
            case_base, trace, config,
            FaultSpec(kind="worker_crash", target="fpga0", at_us=1000.0,
                      duration_us=3000.0),
            FaultSpec(kind="slow_device", target="fpga1", at_us=0.0,
                      duration_us=5000.0, factor=3.0),
        )
        healthy = ServingEngine(case_base, config=config).serve(trace)
        faulty_rankings = faulty.rankings()
        healthy_rankings = healthy.rankings()
        common = 0
        for mine, theirs in zip(faulty_rankings, healthy_rankings):
            if mine is not None:
                assert mine == theirs  # exact doubles, no tolerance
                common += 1
        assert common > 0
        # Capacity differences are reported separately, not hidden in the
        # ranking surface.
        assert len(faulty_rankings) == len(healthy_rankings) == len(trace)

    def test_permanent_hang_ends_in_explicit_errors_not_limbo(self, case_base):
        trace = _trace(case_base, count=30)
        config = ServingConfig(max_batch=4, deadline_us=5000.0)
        report, engine = self._faulty_report(
            case_base, trace, config,
            FaultSpec(kind="worker_hang", target="*", at_us=1000.0),
        )
        assert len(report.served) == len(trace)
        for record in report.served:
            assert isinstance(record.status, ServingStatus)
            if not record.status.served:
                assert record.reason
        # The hang never lifts: once quarantined, later requests exhaust the
        # requeue budget and fail explicitly.
        exhausted = [
            record for record in report.served
            if record.status is ServingStatus.REJECTED_DEADLINE
            and "requeue" in record.reason
        ]
        assert exhausted
        states = report.metrics["cluster"]["resilience"]["worker_states"]
        assert QUARANTINED in states.values()

    def test_degrade_to_software_false_survives_hardware_quarantine(
        self, case_base
    ):
        """Quarantine must not un-gate the software tier."""
        trace = _trace(case_base, count=30)
        fleet = DeviceFleet.build(
            case_base, hardware_devices=1, software_devices=1
        )
        engine = ServingEngine(
            case_base, fleet=fleet,
            config=ServingConfig(max_batch=4, degrade_to_software=False),
            fault_injector=_injector(
                FaultSpec(kind="worker_hang", target="fpga0", at_us=0.0),
            ),
        )
        report = engine.serve(trace)
        statuses = {record.status for record in report.served}
        assert ServingStatus.SERVED_SOFTWARE not in statuses
        assert all(
            status in (ServingStatus.SERVED_HARDWARE,
                       ServingStatus.REJECTED_DEADLINE)
            for status in statuses
        )

    def test_without_an_injector_nothing_changes(self, case_base):
        """The health machinery is absent from un-faulted fleets: the PR 5
        cluster path stays bit-for-bit what it was."""
        trace = _trace(case_base)
        config = ServingConfig(max_batch=8)
        fleet = DeviceFleet.build(
            case_base, hardware_devices=2, software_devices=1
        )
        engine = ServingEngine(case_base, fleet=fleet, config=config)
        assert engine.admission.health is None
        report = engine.serve(trace)
        assert "resilience" not in report.metrics["cluster"]


class TestStreamFaultRetries:
    def _mutate(self, case_base):
        type_id = case_base.type_ids()[0]
        case_base.replace_implementation(
            type_id, case_base.implementations(type_id)[0]
        )

    def _fleet(self, case_base, *faults, policy=None):
        fleet = DeviceFleet.build(
            case_base, hardware_devices=1, software_devices=0,
            reconfig_us=100.0,
        )
        fleet.apply_faults(
            _injector(*faults),
            policy or RetryPolicy(base_delay_us=200.0, jitter=0.0),
        )
        return fleet

    def _reference_fleet(self, case_base):
        """An un-faulted twin measuring the clean transfer size."""
        return DeviceFleet.build(
            case_base, hardware_devices=1, software_devices=0,
            reconfig_us=100.0,
        )

    def test_corrupted_stream_retries_to_success(self, case_base):
        fleet = self._fleet(
            case_base,
            FaultSpec(kind="stream_corrupt", target="fpga0", at_us=0.0,
                      duration_us=150.0),
        )
        reference = self._reference_fleet(case_base)
        self._mutate(case_base)
        clean_bytes = reference.sync(0.0)[0].bytes_streamed
        # Attempt 0 starts at t=0 inside the window and fails after the
        # full 100 us transfer; the 200 us backoff lands the retry at
        # t=300, outside the window.
        events = fleet.sync(0.0)
        assert len(events) == 1
        event = events[0]
        assert event.status == "applied"
        assert event.attempts == 2
        # Traffic counts both transfers; the event spans first to last.
        assert event.bytes_streamed == 2 * clean_bytes
        assert event.duration_us == 400.0
        assert fleet.workers[0].image_revision == case_base.revision

    def test_truncated_stream_exhausts_and_leaves_the_image_stale(
        self, case_base
    ):
        fleet = self._fleet(
            case_base,
            FaultSpec(kind="stream_truncate", target="fpga0", at_us=0.0,
                      duration_us=1e9, factor=0.5),
        )
        reference = self._reference_fleet(case_base)
        self._mutate(case_base)
        clean_bytes = reference.sync(0.0)[0].bytes_streamed
        events = fleet.sync(0.0)
        assert len(events) == 1
        event = events[0]
        assert event.status == "failed"
        assert event.attempts == 3  # the full retry budget
        # Half-transfers only: three truncated attempts streamed 1.5 windows.
        assert event.bytes_streamed == 3 * (clean_bytes // 2)
        assert fleet.workers[0].image_revision != case_base.revision
        # Past the fault window the next sync probe succeeds.
        recovered = fleet.sync(2e9)
        assert len(recovered) == 1
        assert recovered[0].status == "applied"
        assert fleet.workers[0].image_revision == case_base.revision

    def test_port_occupancy_reflects_failed_attempts(self, case_base):
        fleet = self._fleet(
            case_base,
            FaultSpec(kind="stream_corrupt", target="fpga0", at_us=0.0,
                      duration_us=150.0),
        )
        self._mutate(case_base)
        fleet.sync(0.0)
        port = fleet.workers[0].controller.reconfiguration
        statuses = [event.status for event in port.events]
        assert statuses == ["failed-corrupted", "applied"]
