"""Tests for cluster-scale serving: fleet routing, degradation, learning.

The load-bearing property is the N-server generalisation: single-node
serving *is* the fleet's one-hardware/one-software topology, so an explicit
fleet of one hardware and one software worker at equal clock (with free
image adoption) must reproduce single-node decisions *exactly*, and any
fleet must return rankings bit-identical to single-device serving (routing
redistributes where modelled service happens, never what is retrieved).
"""

import pytest

from repro.platform import DeviceFleet
from repro.serving import (
    ServingConfig,
    ServingEngine,
    ServingStatus,
    synthetic_trace,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec


@pytest.fixture
def cluster_case_base():
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


def _decision_surface(report):
    """The per-request fields a replay decides, except the worker's name."""
    return [
        (
            record.status,
            record.wait_us,
            record.queue_us,
            record.service_us,
            record.cycles,
            record.latency_us,
            record.reason,
        )
        for record in report.served
    ]


def _one_plus_one(case_base, **kwargs):
    """The explicit twin of the single-node topology."""
    return DeviceFleet.build(
        case_base, hardware_devices=1, software_devices=1, reconfig_us=0.0,
        **kwargs,
    )


class TestTwoServerEquivalence:
    @pytest.mark.parametrize("deadline_us", [None, 900.0, 0.0])
    def test_one_hw_one_sw_fleet_reproduces_the_two_server_gate(
        self, cluster_case_base, deadline_us
    ):
        """The single node is exactly the 1+1 fleet (no rounding)."""
        config = ServingConfig(max_batch=16, deadline_us=deadline_us)
        trace = _trace(cluster_case_base, count=80, interarrival=30.0)
        single = ServingEngine(cluster_case_base, config=config).serve(trace)
        cluster = ServingEngine(
            cluster_case_base, fleet=_one_plus_one(cluster_case_base),
            config=config,
        ).serve(trace)
        assert _decision_surface(cluster) == _decision_surface(single)
        assert cluster.rankings() == single.rankings()
        # The explicit fleet names its workers; the single node does not.
        assert all(record.worker == "" for record in single.served)
        assert "cluster" not in single.metrics

    def test_explicit_hardware_config_clock_drives_both_tiers(
        self, cluster_case_base
    ):
        """An explicit hardware clock governs the software workers too.

        The admission controller's convention: an explicit
        ``hardware_config``'s clock takes precedence over ``clock_mhz`` and
        the software cost model follows it (equal-clock comparison).  The
        fleet must mirror that, or the 1hw+1sw differential breaks whenever
        the clocks differ.
        """
        from repro.hardware import HardwareConfig

        hardware_config = HardwareConfig(clock_mhz=120.0)
        config = ServingConfig(
            max_batch=16, deadline_us=600.0, hardware_config=hardware_config
        )
        trace = _trace(cluster_case_base, count=80, interarrival=30.0)
        single = ServingEngine(cluster_case_base, config=config).serve(trace)
        fleet = _one_plus_one(
            cluster_case_base,
            hardware_config=hardware_config,  # clock_mhz left at its 66 default
        )
        assert fleet.worker("cpu0").clock_mhz == 120.0
        cluster = ServingEngine(
            cluster_case_base, fleet=fleet, config=config
        ).serve(trace)
        assert _decision_surface(cluster) == _decision_surface(single)

    def test_degrade_to_software_disabled_matches_too(self, cluster_case_base):
        config = ServingConfig(
            max_batch=16, deadline_us=900.0, degrade_to_software=False
        )
        trace = _trace(cluster_case_base, count=80, interarrival=30.0)
        single = ServingEngine(cluster_case_base, config=config).serve(trace)
        cluster = ServingEngine(
            cluster_case_base, fleet=_one_plus_one(cluster_case_base),
            config=config,
        ).serve(trace)
        assert _decision_surface(cluster) == _decision_surface(single)


class TestFleetRouting:
    def test_rankings_bit_identical_to_single_device(self, cluster_case_base):
        trace = _trace(cluster_case_base)
        config = ServingConfig(max_batch=32, n_best=5)
        single = ServingEngine(cluster_case_base, config=config).serve(trace)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=4, software_devices=1
        )
        cluster = ServingEngine(
            cluster_case_base, fleet=fleet, config=config
        ).serve(trace)
        assert cluster.rankings() == single.rankings()

    def test_more_devices_raise_modelled_throughput(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=96, interarrival=10.0)
        config = ServingConfig(max_batch=96, max_wait_us=1e9, n_best=1)

        def throughput(devices):
            fleet = DeviceFleet.build(
                cluster_case_base, hardware_devices=devices, software_devices=0
            )
            report = ServingEngine(
                cluster_case_base, fleet=fleet, config=config
            ).serve(trace)
            return report.metrics["cluster"]["modelled_throughput_rps"]

        assert throughput(4) >= 3.0 * throughput(1)

    def test_requests_balance_across_hardware_workers(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=64, interarrival=5.0)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=3, software_devices=1
        )
        report = ServingEngine(
            cluster_case_base, fleet=fleet,
            config=ServingConfig(max_batch=64, max_wait_us=1e9),
        ).serve(trace)
        workers = report.metrics["cluster"]["workers"]
        for name in ("fpga0", "fpga1", "fpga2"):
            assert workers[name]["assigned"] > 0
        # Without a deadline nothing degrades: software stays idle, exactly
        # like the two-server model admits everything to hardware.
        assert workers["cpu0"]["assigned"] == 0
        assert all(record.worker.startswith("fpga") for record in report.served)

    def test_outage_degrades_to_software_under_deadline(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=40, interarrival=100.0)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=1, software_devices=1
        )
        # The lone hardware device is down for the whole trace.
        fleet.worker("fpga0").add_outage(0.0, 1e9)
        report = ServingEngine(
            cluster_case_base, fleet=fleet,
            config=ServingConfig(max_batch=8, deadline_us=5_000.0),
        ).serve(trace)
        statuses = report.metrics["statuses"]
        assert statuses.get("served_hardware", 0) == 0
        assert statuses.get("served_software", 0) > 0
        assert all(
            record.worker == "cpu0"
            for record in report.served
            if record.status is ServingStatus.SERVED_SOFTWARE
        )

    def test_outage_queues_without_deadline(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=10, interarrival=100.0)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=1, software_devices=1
        )
        outage_end = 50_000.0
        fleet.worker("fpga0").add_outage(0.0, outage_end)
        report = ServingEngine(
            cluster_case_base, fleet=fleet, config=ServingConfig(max_batch=8)
        ).serve(trace)
        # Unconstrained traffic queues behind the outage instead of degrading.
        assert all(
            record.status is ServingStatus.SERVED_HARDWARE
            for record in report.served
        )
        assert all(
            record.latency_us >= outage_end - record.arrival_us - record.wait_us
            for record in report.served
        )

    def test_software_only_fleet_serves_as_primary_tier(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=20)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=0, software_devices=2
        )
        report = ServingEngine(
            cluster_case_base, fleet=fleet,
            config=ServingConfig(max_batch=8, degrade_to_software=False),
        ).serve(trace)
        assert all(
            record.status is ServingStatus.SERVED_SOFTWARE
            for record in report.served
        )

    def test_fleet_must_share_the_served_case_base(self, cluster_case_base):
        from repro.core.exceptions import ReproError

        fleet = DeviceFleet.build(cluster_case_base.copy(), hardware_devices=1)
        with pytest.raises(ReproError):
            ServingEngine(cluster_case_base, fleet=fleet)

    def test_replays_are_deterministic(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=40)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=2, software_devices=1
        )
        engine = ServingEngine(
            cluster_case_base, fleet=fleet, config=ServingConfig(max_batch=16)
        )
        first = engine.serve(trace)
        second = engine.serve(trace)
        assert _decision_surface(first) == _decision_surface(second)
        assert first.rankings() == second.rankings()
        assert (
            first.metrics["cluster"]["modelled_makespan_us"]
            == second.metrics["cluster"]["modelled_makespan_us"]
        )


class TestFleetWideLearning:
    def test_delta_windows_propagate_to_every_device(self, cluster_case_base):
        trace = _trace(cluster_case_base, count=40, interarrival=500.0)
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=2, software_devices=1
        )
        engine = ServingEngine(
            cluster_case_base, fleet=fleet,
            config=ServingConfig(max_batch=8, learn=True),
        )
        report = engine.serve(trace)
        learning = report.metrics["learning"]
        assert learning["revisions"] > 0
        sync = report.metrics["cluster"]["sync"]
        # Every hardware device streamed every window incrementally.
        assert sync["incremental"] > 0
        assert sync["full"] == 0
        assert sync["reconfiguration_us"] > 0
        assert all(
            worker.image_revision == cluster_case_base.revision
            for worker in fleet.workers
        )

    def test_learning_cluster_matches_learning_single_device(self):
        generator = CaseBaseGenerator(
            GeneratorSpec(
                type_count=5,
                implementations_per_type=6,
                attributes_per_implementation=6,
                attribute_type_count=8,
            ),
            seed=11,
        )
        source = generator.case_base()
        trace = _trace(source, count=50, interarrival=400.0, seed=9)
        config = ServingConfig(max_batch=8, learn=True, novelty_threshold=0.97)
        single_case_base = source.copy()
        single = ServingEngine(single_case_base, config=config).serve(trace)
        cluster_case_base = source.copy()
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=3, software_devices=1
        )
        cluster = ServingEngine(
            cluster_case_base, fleet=fleet, config=config
        ).serve(trace)
        # No deadline: both replays serve the same requests, feed the same
        # outcomes back, and the evolved rankings stay bit-identical.
        assert cluster.rankings() == single.rankings()
        assert cluster.metrics["learning"] == single.metrics["learning"]
        assert cluster_case_base.revision == single_case_base.revision
