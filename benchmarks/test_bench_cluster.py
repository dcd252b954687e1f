"""Cluster-scale serving: fleet capacity must scale with device count.

The cluster router exists to turn N reconfigurable devices into N times the
retrieval capacity; this benchmark gates that on a Table-3-sized case base
under hot-template traffic (the serving benchmark's trace shape):

* a 4-device fleet must deliver at least :data:`THROUGHPUT_GATE` times the
  *modelled* replay throughput of a single device -- served requests per
  modelled second of fleet time from first dispatch to last completion,
  derived entirely from the exact cycle models, so the gate is deterministic
  (host wall-clock stays in the serving benchmark);
* fleet routing must stay bit-identical with single-device serving on the
  same trace (the ``serve-cluster --engine compare`` guarantee);
* fleet-wide online learning (delta windows streamed to every device's
  cached image through the reconfiguration port) must keep the replay
  bit-identical with a learning single-device replay from the same
  snapshot.

Setting ``BENCH_CLUSTER_JSON=<path>`` records the measured numbers as a JSON
baseline -- ``BENCH_cluster.json`` in the repository root seeds the perf
trajectory and is refreshed by the CI bench-smoke job's artifact.
"""

import random

import gating

from repro.core import FunctionRequest
from repro.platform import DeviceFleet
from repro.serving import (
    ServingConfig,
    ServingEngine,
    trace_from_requests,
)

#: Trace sizing: hot-template traffic at a saturating burst.
REQUEST_COUNT = 192
TEMPLATE_COUNT = 6
ATTRIBUTES_PER_REQUEST = 6
INTERARRIVAL_US = 5.0

#: The acceptance gate: a 4-device fleet must beat one device by this factor
#: in modelled replay throughput.  The ideal is 4.0; earliest-finish routing
#: loses a sliver to the final partially filled "wave", so the gate leaves
#: headroom (measured ~3.9x).
THROUGHPUT_GATE = 3.0

FLEET_DEVICES = 4
MAX_BATCH = 192


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
            requester="bench-cluster",
        ))
    return trace_from_requests(requests, interarrival_us=INTERARRIVAL_US)


def _cluster_engine(case_base, devices, **overrides):
    defaults = dict(max_batch=MAX_BATCH, max_wait_us=1e9, n_best=1)
    defaults.update(overrides)
    fleet = DeviceFleet.build(
        case_base, hardware_devices=devices, software_devices=0
    )
    return ServingEngine(case_base, fleet=fleet, config=ServingConfig(**defaults))


def _record_baseline(key, payload):
    """Merge one measurement into the BENCH_CLUSTER_JSON baseline (see gating.py)."""
    gating.record_baseline("BENCH_CLUSTER_JSON", key, payload)


def test_fleet_throughput_gate(benchmark, table3_case_base, table3_generator):
    """>= 3x modelled replay throughput with a 4-device fleet vs one device."""
    trace = _hot_template_trace(table3_generator)
    single = _cluster_engine(table3_case_base, 1)
    fleet = _cluster_engine(table3_case_base, FLEET_DEVICES)
    single.serve(trace)  # warm image / columnar / request caches
    fleet.serve(trace)

    def measure():
        single_report = single.serve(trace)
        fleet_report = fleet.serve(trace)
        # Routing must change capacity only -- outcomes stay identical.
        assert fleet_report.rankings() == single_report.rankings()
        return single_report, fleet_report

    single_report, fleet_report = benchmark.pedantic(measure, rounds=1, iterations=1)
    single_rps = single_report.metrics["cluster"]["modelled_throughput_rps"]
    fleet_rps = fleet_report.metrics["cluster"]["modelled_throughput_rps"]
    speedup = fleet_rps / single_rps
    _record_baseline("fleet_throughput", {
        "requests": REQUEST_COUNT,
        "devices": FLEET_DEVICES,
        "single_device_modelled_rps": round(single_rps, 0),
        "fleet_modelled_rps": round(fleet_rps, 0),
        "throughput_ratio": round(speedup, 2),
        "single_makespan_us": round(
            single_report.metrics["cluster"]["modelled_makespan_us"], 1
        ),
        "fleet_makespan_us": round(
            fleet_report.metrics["cluster"]["modelled_makespan_us"], 1
        ),
    })
    assert speedup >= THROUGHPUT_GATE


def test_fleet_routing_bit_identical_with_single_node_engine(
    benchmark, table3_case_base, table3_generator
):
    """Cluster rankings match the PR 3 single-node serving engine exactly."""
    trace = _hot_template_trace(table3_generator)
    config = ServingConfig(max_batch=MAX_BATCH, max_wait_us=1e9, n_best=5)
    single_node = ServingEngine(table3_case_base, config=config)
    fleet = DeviceFleet.build(
        table3_case_base, hardware_devices=FLEET_DEVICES, software_devices=1
    )
    cluster = ServingEngine(table3_case_base, fleet=fleet, config=config)
    single_node.serve(trace)
    cluster.serve(trace)

    def measure():
        cluster_report = cluster.serve(trace)
        single_report = single_node.serve(trace)
        assert cluster_report.rankings() == single_report.rankings()
        return cluster_report

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    _record_baseline("fleet_bit_identity", {
        "requests": REQUEST_COUNT,
        "devices": FLEET_DEVICES + 1,
        "bit_identical": True,
        "host_wall_seconds": round(report.wall_seconds, 4),
    })


def test_fleet_wide_learning_stays_bit_identical(
    benchmark, table3_generator
):
    """Online learning with per-device image streams matches single-device."""
    source = table3_generator.case_base()
    trace = _hot_template_trace(table3_generator)
    config = ServingConfig(max_batch=16, learn=True, novelty_threshold=0.97)

    def measure():
        single_case_base = source.copy()
        single_report = ServingEngine(single_case_base, config=config).serve(trace)
        cluster_case_base = source.copy()
        fleet = DeviceFleet.build(
            cluster_case_base, hardware_devices=FLEET_DEVICES, software_devices=1
        )
        cluster_report = ServingEngine(
            cluster_case_base, fleet=fleet, config=config
        ).serve(trace)
        assert cluster_report.rankings() == single_report.rankings()
        assert (
            cluster_report.metrics["learning"] == single_report.metrics["learning"]
        )
        return cluster_report

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    sync = report.metrics["cluster"]["sync"]
    assert sync["incremental"] > 0  # delta windows streamed, not full images
    _record_baseline("fleet_learning", {
        "requests": REQUEST_COUNT,
        "devices": FLEET_DEVICES + 1,
        "bit_identical": True,
        "incremental_syncs": sync["incremental"],
        "full_syncs": sync["full"],
        "bytes_streamed": sync["bytes_streamed"],
        "reconfiguration_us": round(sync["reconfiguration_us"], 1),
    })
