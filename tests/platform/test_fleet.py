"""Unit tests for the device fleet (workers, image sync, outages)."""

import pytest

from repro.core import PlatformError, paper_case_base
from repro.platform import (
    DeviceFleet,
    LocalRuntimeController,
    RetrievalWorker,
    host_cpu,
)


@pytest.fixture
def fleet():
    return DeviceFleet.build(
        paper_case_base(), hardware_devices=2, software_devices=1
    )


class TestFleetConstruction:
    def test_build_registers_heterogeneous_workers(self, fleet):
        assert len(fleet) == 3
        assert [worker.name for worker in fleet.hardware_workers] == ["fpga0", "fpga1"]
        assert [worker.name for worker in fleet.software_workers] == ["cpu0"]
        hw0, hw1 = fleet.hardware_workers
        assert hw0.clock_mhz == 66.0

    def test_workers_are_registered_with_the_resource_state(self, fleet):
        snapshot = fleet.snapshot()
        assert set(snapshot["workers"]) == {"fpga0", "fpga1", "cpu0"}
        assert set(snapshot["system"].devices) == {"fpga0", "fpga1", "cpu0"}
        assert snapshot["workers"]["fpga0"]["device_kind"] == "fpga"
        assert snapshot["workers"]["cpu0"]["kind"] == "software"

    def test_needs_at_least_one_device(self):
        with pytest.raises(PlatformError):
            DeviceFleet.build(paper_case_base(), hardware_devices=0, software_devices=0)
        with pytest.raises(PlatformError):
            DeviceFleet.build(paper_case_base(), hardware_devices=-1)

    def test_worker_names_must_be_unique(self):
        case_base = paper_case_base()
        workers = [
            RetrievalWorker(
                "cpu0", LocalRuntimeController(host_cpu("cpu0")),
                kind="software", clock_mhz=66.0, case_base=case_base,
            )
            for _ in range(2)
        ]
        with pytest.raises(PlatformError):
            DeviceFleet(case_base, workers)

    def test_hardware_worker_requires_a_reconfiguration_port(self):
        case_base = paper_case_base()
        with pytest.raises(PlatformError):
            RetrievalWorker(
                "cpu0", LocalRuntimeController(host_cpu("cpu0")),
                kind="hardware", clock_mhz=66.0, case_base=case_base,
            )

    def test_worker_lookup(self, fleet):
        assert fleet.worker("fpga1").kind == "hardware"
        with pytest.raises(PlatformError):
            fleet.worker("nonexistent")


class TestImageSync:
    def test_fresh_fleet_has_nothing_to_sync(self, fleet):
        assert fleet.sync(0.0) == []

    def test_small_delta_streams_incrementally(self):
        case_base = paper_case_base()
        fleet = DeviceFleet.build(case_base, hardware_devices=2, software_devices=1)
        full_bytes = fleet.image_word_count() * 2
        implementation = case_base.get_implementation(1, 1)
        case_base.replace_implementation(1, implementation)
        events = fleet.sync(100.0)
        assert [event.worker for event in events] == ["fpga0", "fpga1", "cpu0"]
        hardware_events = events[:2]
        for event in hardware_events:
            assert event.incremental
            assert 0 < event.bytes_streamed < full_bytes
            assert event.duration_us > 0
            assert event.start_us >= 100.0
        # Software workers adopt the image instantaneously (opcode is
        # fetched per placement, not per retrieval).
        assert events[2].duration_us == 0.0
        assert events[2].bytes_streamed == 0
        assert all(
            worker.image_revision == case_base.revision for worker in fleet.workers
        )
        # Re-syncing at the same revision is a no-op.
        assert fleet.sync(200.0) == []

    def test_truncated_log_streams_the_full_image(self):
        case_base = paper_case_base()
        fleet = DeviceFleet.build(case_base, hardware_devices=1)
        full_bytes = fleet.image_word_count() * 2
        implementation = case_base.get_implementation(1, 1)
        for _ in range(case_base.delta_log.capacity + 1):
            case_base.replace_implementation(1, implementation)
        (event,) = [e for e in fleet.sync(0.0) if e.worker == "fpga0"]
        assert not event.incremental
        assert event.bytes_streamed == full_bytes

    def test_sync_occupies_the_reconfiguration_port(self):
        case_base = paper_case_base()
        fleet = DeviceFleet.build(case_base, hardware_devices=1, software_devices=0)
        worker = fleet.worker("fpga0")
        case_base.replace_implementation(1, case_base.get_implementation(1, 1))
        (event,) = fleet.sync(50.0)
        # The device is unavailable until the stream completes.
        assert worker.available_from(50.0) == pytest.approx(event.end_us)
        assert worker.available_from(event.end_us + 1.0) == event.end_us + 1.0

    def test_fixed_reconfig_us_overrides_the_bandwidth_model(self):
        case_base = paper_case_base()
        fleet = DeviceFleet.build(
            case_base, hardware_devices=1, software_devices=0, reconfig_us=123.0
        )
        case_base.replace_implementation(1, case_base.get_implementation(1, 1))
        (event,) = fleet.sync(0.0)
        assert event.duration_us == 123.0

    def test_reset_timing_clears_port_state_but_not_revisions(self):
        case_base = paper_case_base()
        fleet = DeviceFleet.build(case_base, hardware_devices=1)
        worker = fleet.worker("fpga0")
        case_base.replace_implementation(1, case_base.get_implementation(1, 1))
        fleet.sync(0.0)
        assert worker.sync_events
        fleet.reset_timing()
        assert worker.sync_events == []
        assert worker.available_from(0.0) == 0.0
        assert worker.image_revision == case_base.revision


class TestOutages:
    def test_outage_window_delays_availability(self, fleet):
        worker = fleet.worker("fpga0")
        worker.add_outage(100.0, 300.0)
        assert worker.available_from(50.0) == 50.0
        assert worker.available_from(100.0) == 300.0
        assert worker.available_from(299.0) == 300.0
        assert worker.available_from(300.0) == 300.0

    def test_service_may_not_overlap_an_outage(self, fleet):
        """Work that would still be running at the outage starts after it."""
        worker = fleet.worker("fpga0")
        worker.add_outage(1_000.0, 2_000.0)
        # A zero-length probe just before the window is unaffected...
        assert worker.available_from(999.0) == 999.0
        # ...but a job whose service crosses into the window must wait.
        assert worker.available_from(999.0, 5_000.0) == 2_000.0
        assert worker.available_from(500.0, 400.0) == 500.0
        assert worker.available_from(500.0, 501.0) == 2_000.0

    def test_back_to_back_outages_chain(self, fleet):
        worker = fleet.worker("fpga0")
        worker.add_outage(400.0, 500.0)
        worker.add_outage(100.0, 400.0)
        assert worker.outages() == [(100.0, 400.0), (400.0, 500.0)]
        assert worker.available_from(150.0) == 500.0

    def test_invalid_outage_windows_are_rejected(self, fleet):
        worker = fleet.worker("fpga0")
        with pytest.raises(PlatformError):
            worker.add_outage(300.0, 300.0)
        with pytest.raises(PlatformError):
            worker.add_outage(-1.0, 300.0)
