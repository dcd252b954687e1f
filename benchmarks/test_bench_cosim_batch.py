"""Cycle-engine batch throughput: the vectorized fast path vs the golden walk.

The vectorized cycle engine exists so the paper's cycle-model experiments
(E4 speedup, E7 compaction ablations, E8 n-best, Table 3 scaling) can run at
scenario scale without being bound by the Python-level word-at-a-time
simulator.  This benchmark gates that promise: on a Table-3-sized case base
the vectorized engine must be at least 10x faster than the stepwise model
while returning *identical* results and cycle statistics.  Each side is
timed best-of-``ROUNDS`` in alternating rounds of thread CPU time.

Setting ``BENCH_COSIM_JSON=<path>`` additionally records the measured
numbers (speedups, wall times, modelled cycles) as a JSON baseline --
``BENCH_cosim.json`` in the repository root seeds the perf trajectory and is
refreshed by the CI bench-smoke job's artifact.
"""

import time

import gating

from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.software import SoftwareRetrievalUnit

#: Batch size of the throughput gate (a mid-sized scenario burst).
REQUEST_COUNT = 96

#: The acceptance gate: vectorized must beat stepwise by at least this factor.
SPEEDUP_GATE = 10.0

#: Gate for the compacted configuration, whose stepwise walk is itself ~2x
#: cheaper (wide fetches, cached reciprocals) -- measured ~12x, gated with
#: headroom for loaded CI machines.
COMPACT_SPEEDUP_GATE = 6.0

#: Alternating rounds per side, each timed in the calling thread's CPU time:
#: a burst of host load then cannot decide a ratio from one unlucky run.
ROUNDS = 3


def _requests(generator, count):
    return [
        generator.request(
            salt=500 + index,
            attribute_count=generator.spec.attributes_per_implementation,
        )
        for index in range(count)
    ]


def _record_baseline(key, payload):
    """Merge one measurement into the BENCH_COSIM_JSON baseline (see gating.py)."""
    gating.record_baseline("BENCH_COSIM_JSON", key, payload)


def _gate(unit, requests, key, *, assert_identical):
    (stepwise_seconds, stepwise), (vectorized_seconds, vectorized) = (
        gating.interleaved_best_of(
            ROUNDS,
            lambda: unit.run_batch(requests, engine="stepwise"),
            lambda: unit.run_batch(requests, engine="vectorized"),
            clock=time.thread_time,
        )
    )
    for stepwise_result, vectorized_result in zip(stepwise, vectorized):
        assert_identical(stepwise_result, vectorized_result)
    speedup = stepwise_seconds / vectorized_seconds
    _record_baseline(key, {
        "requests": len(requests),
        "stepwise_seconds": round(stepwise_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "speedup": round(speedup, 1),
        "modelled_cycles": sum(result.cycles for result in vectorized),
    })
    return speedup


def _assert_hardware_identical(stepwise, vectorized):
    assert stepwise.best_id == vectorized.best_id
    assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
    assert stepwise.ranked == vectorized.ranked
    assert stepwise.statistics == vectorized.statistics


def _assert_software_identical(stepwise, vectorized):
    assert stepwise.best_id == vectorized.best_id
    assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
    assert stepwise.statistics == vectorized.statistics
    assert stepwise.counters.counts == vectorized.counters.counts


def test_hardware_batch_speedup_gate(benchmark, table3_case_base, table3_generator):
    """>= 10x on the hardware cycle model at the paper's Table 3 sizing."""
    unit = HardwareRetrievalUnit(table3_case_base)
    requests = _requests(table3_generator, REQUEST_COUNT)
    unit.run_batch(requests)  # warm the image, type-table and request-encoding caches

    speedup = benchmark.pedantic(
        lambda: _gate(unit, requests, "hardware_most_similar",
                      assert_identical=_assert_hardware_identical),
        rounds=1, iterations=1,
    )
    assert speedup >= SPEEDUP_GATE


def test_software_batch_speedup_gate(benchmark, table3_case_base, table3_generator):
    """>= 10x on the software (soft-core) cycle model at the same sizing."""
    unit = SoftwareRetrievalUnit(table3_case_base)
    requests = _requests(table3_generator, REQUEST_COUNT)
    unit.run_batch(requests)  # warm the image, type-table and request-encoding caches

    speedup = benchmark.pedantic(
        lambda: _gate(unit, requests, "software_default",
                      assert_identical=_assert_software_identical),
        rounds=1, iterations=1,
    )
    assert speedup >= SPEEDUP_GATE


def test_hardware_compact_nbest_batch_speedup(benchmark, table3_case_base, table3_generator):
    """The gate also holds for the compacted + n-best configuration (E7/E8 axes)."""
    unit = HardwareRetrievalUnit(
        table3_case_base,
        config=HardwareConfig(
            wide_attribute_fetch=True,
            pipelined_datapath=True,
            cache_reciprocals=True,
            n_best=4,
        ),
    )
    requests = _requests(table3_generator, REQUEST_COUNT)
    unit.run_batch(requests)  # warm the image, type-table and request-encoding caches

    speedup = benchmark.pedantic(
        lambda: _gate(unit, requests, "hardware_compact_nbest4",
                      assert_identical=_assert_hardware_identical),
        rounds=1, iterations=1,
    )
    assert speedup >= COMPACT_SPEEDUP_GATE


def test_vectorized_throughput_per_request(benchmark, table3_case_base, table3_generator):
    """Absolute throughput of the fast path (the quantity scenarios feel)."""
    unit = HardwareRetrievalUnit(table3_case_base)
    requests = _requests(table3_generator, REQUEST_COUNT)
    unit.run_batch(requests)  # warm the image, type-table and request-encoding caches

    results = benchmark(lambda: unit.run_batch(requests, engine="vectorized"))
    assert len(results) == REQUEST_COUNT
    assert all(result.cycles > 0 for result in results)
