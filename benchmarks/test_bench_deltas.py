"""Delta propagation: incremental retain + re-retrieve vs full rebuilds.

Before the delta subsystem, every accelerated layer (vectorized backend
matrices, the encoded memory image and its columnar decode, the request
caches) was keyed to ``CaseBase.revision`` and
rebuilt from scratch on *any* mutation -- making online learning under
serving traffic O(case base) per retained case.  This benchmark gates the
delta win on a Table-3-sized case base (15 types x 10 implementations x 10
attributes):

* one **retain** (a new implementation appended through
  ``CaseBase.add_implementation``, the retain step's ``max + 1`` allocation)
  followed by one **re-retrieve** through the serving stack (the vectorized
  :class:`~repro.core.retrieval.RetrievalEngine` serving calls, plus the
  admission controller's exact cycle prediction on the hardware unit) must be at least :data:`SPEEDUP_GATE`
  faster with delta propagation than on the pre-delta full-rebuild path,
  with bit-identical rankings and cycle counts.  Every pass runs in the
  calling thread and is timed in its CPU time (``time.thread_time``), so
  time spent descheduled while other processes run does not count;
* the pre-delta baseline is reproduced faithfully: caches are invalidated
  after every mutation (``invalidate_cache()`` / ``invalidate()`` is
  exactly the old revision-keyed behaviour), and the image's compact-tree encoding -- which the pre-delta
  ``CaseBaseImage`` constructor built eagerly on every rebuild and this PR
  made lazy -- is charged too.  The invalidate-only ratio (giving the
  baseline this PR's lazy-compact and kernel speedups for free) is recorded
  alongside as ``speedup_vs_lazy_rebuild``.

Setting ``BENCH_DELTAS_JSON=<path>`` records the measured numbers as a JSON
baseline -- ``BENCH_deltas.json`` in the repository root seeds the perf
trajectory and is refreshed by the CI bench-smoke job's artifact.
"""

import random
import time

import gating

from repro.core import ExecutionTarget, Implementation, RetrievalEngine
from repro.hardware import HardwareRetrievalUnit

#: The acceptance gate: retain + re-retrieve must beat the pre-delta
#: full-rebuild path by at least this factor.
SPEEDUP_GATE = 10.0

#: Retains measured per pass (each lands in a different function type).
RETAIN_COUNT = 45

#: Most-similar mode -- the paper's core retrieval, and the cheapest honest
#: re-retrieve (the gate measures mutation absorption, not ranking depth).
N_BEST = 1
#: Best-of-N de-noising; the incremental pass is cheap, so it samples more.
ROUNDS = 3
INCREMENTAL_ROUNDS = 7


def _retained_implementations(case_base, seed=9):
    """One retain per iteration: ``max + 1`` IDs, values inside the bounds."""
    rng = random.Random(seed)
    type_ids = case_base.type_ids()
    next_ids = {
        type_id: max(i.implementation_id for i in case_base.implementations(type_id))
        for type_id in type_ids
    }
    retained = []
    for index in range(RETAIN_COUNT):
        type_id = type_ids[index % len(type_ids)]
        next_ids[type_id] += 1
        retained.append((type_id, Implementation(
            next_ids[type_id],
            ExecutionTarget.GPP,
            {a: rng.randint(0, 1000) for a in sorted(rng.sample(range(1, 11), 6))},
            name=f"learned-{index}",
        )))
    return retained


def _run_pass(generator, retained, probes, *, full_rebuild):
    """One timed pass: RETAIN_COUNT x (retain + re-retrieve + predict).

    ``full_rebuild=True`` reproduces the pre-delta behaviour: every cache is
    invalidated after the mutation (the old revision-keyed rebuild) and the
    compact-tree encoding the old image constructor produced eagerly is
    charged as well.
    """
    case_base = generator.case_base()
    engine = RetrievalEngine(case_base, backend="vectorized")
    hardware = HardwareRetrievalUnit(case_base)
    engine.retrieve_batch(probes, n=N_BEST)  # warm caches
    hardware.predict_cycles(probes)
    outputs = []
    start = time.thread_time()
    for type_id, implementation in retained:
        case_base.add_implementation(type_id, implementation)
        if full_rebuild:
            engine.invalidate_cache()
            hardware.invalidate()
        rankings = engine.retrieve_batch(probes, n=N_BEST)
        cycles = hardware.predict_cycles(probes)
        if full_rebuild:
            hardware.pricing_image().image.compact_tree  # eager in the pre-delta constructor
        outputs.append((
            [[(e.implementation_id, e.similarity) for e in r.ranked] for r in rankings],
            cycles,
        ))
    elapsed = time.thread_time() - start
    return elapsed, outputs, engine, hardware


def _best_pass(generator, retained, probes, *, full_rebuild, rounds=ROUNDS):
    best_elapsed, best_outputs = None, None
    trackers = None
    for _ in range(rounds):
        elapsed, outputs, engine, hardware = _run_pass(
            generator, retained, probes, full_rebuild=full_rebuild
        )
        if best_outputs is not None:
            assert outputs == best_outputs  # deterministic across rounds
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_outputs = elapsed, outputs
            trackers = (engine, hardware)
    return best_elapsed, best_outputs, trackers


def _record_baseline(key, payload):
    """Merge one measurement into the BENCH_DELTAS_JSON baseline (see gating.py)."""
    gating.record_baseline("BENCH_DELTAS_JSON", key, payload)


def test_incremental_retain_speedup_gate(benchmark, table3_generator):
    """>= 10x retain + re-retrieve vs the pre-delta full-rebuild path."""
    case_base = table3_generator.case_base()
    retained = _retained_implementations(case_base)
    probes = [table3_generator.request(salt=700, attribute_count=6)]

    def measure():
        incremental = _best_pass(
            table3_generator, retained, probes,
            full_rebuild=False, rounds=INCREMENTAL_ROUNDS,
        )
        full = _best_pass(table3_generator, retained, probes, full_rebuild=True)
        # Delta propagation must change speed only -- outcomes stay
        # bit-identical (rankings, similarity doubles, exact cycle counts).
        assert incremental[1] == full[1]
        return incremental, full

    incremental, full = benchmark.pedantic(measure, rounds=1, iterations=1)
    (incremental_seconds, _, (engine, hardware)) = incremental
    full_seconds = full[0]

    # The fast path must actually have engaged: every mutation absorbed
    # incrementally, never through a silent full rebuild.
    assert engine.case_base.type_tables.tracker.incremental_count >= RETAIN_COUNT
    image_tracker = hardware.pricing_image().tracker
    assert image_tracker.incremental_count >= RETAIN_COUNT
    assert engine.case_base.type_tables.tracker.rebuild_count <= 1  # the initial build only
    assert image_tracker.rebuild_count == 0  # built eagerly with the unit

    speedup = full_seconds / incremental_seconds
    per_retain_us = incremental_seconds / RETAIN_COUNT * 1e6
    _record_baseline("incremental_retain", {
        "retains": RETAIN_COUNT,
        "incremental_seconds": round(incremental_seconds, 4),
        "full_rebuild_seconds": round(full_seconds, 4),
        "speedup": round(speedup, 1),
        "per_retain_us": round(per_retain_us, 1),
        "bit_identical": True,
    })
    assert speedup >= SPEEDUP_GATE


def test_invalidate_only_rebuild_comparison(benchmark, table3_generator):
    """Non-gating: the ratio against this PR's own (lazy) full-rebuild path."""
    case_base = table3_generator.case_base()
    retained = _retained_implementations(case_base)
    probes = [table3_generator.request(salt=700, attribute_count=6)]

    def measure():
        incremental_seconds, incremental_outputs, _ = _best_pass(
            table3_generator, retained, probes,
            full_rebuild=False, rounds=INCREMENTAL_ROUNDS,
        )
        lazy = _run_invalidate_only(table3_generator, retained, probes)
        assert lazy[1] == incremental_outputs
        return incremental_seconds, lazy[0]

    incremental_seconds, lazy_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = lazy_seconds / incremental_seconds
    _record_baseline("invalidate_only", {
        "retains": RETAIN_COUNT,
        "incremental_seconds": round(incremental_seconds, 4),
        "invalidate_only_seconds": round(lazy_seconds, 4),
        "speedup_vs_lazy_rebuild": round(speedup, 1),
    })
    # Informational floor: even against the already-sped-up rebuild path the
    # delta subsystem must win clearly.
    assert speedup >= 5.0


def _run_invalidate_only(generator, retained, probes):
    """The invalidate-per-mutation pass without the eager compact charge."""
    best = None
    for _ in range(ROUNDS):
        case_base = generator.case_base()
        engine = RetrievalEngine(case_base, backend="vectorized")
        hardware = HardwareRetrievalUnit(case_base)
        engine.retrieve_batch(probes, n=N_BEST)
        hardware.predict_cycles(probes)
        outputs = []
        start = time.thread_time()
        for type_id, implementation in retained:
            case_base.add_implementation(type_id, implementation)
            engine.invalidate_cache()
            hardware.invalidate()
            rankings = engine.retrieve_batch(probes, n=N_BEST)
            cycles = hardware.predict_cycles(probes)
            outputs.append((
                [[(e.implementation_id, e.similarity) for e in r.ranked]
                 for r in rankings],
                cycles,
            ))
        elapsed = time.thread_time() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, outputs)
    return best
