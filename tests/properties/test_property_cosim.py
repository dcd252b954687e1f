"""Property-based exactness tests for the vectorized cycle engine.

Uses hypothesis when available (the CI test environment installs it) and
degrades to a seeded-random parametrized sweep otherwise, matching
``test_property_backends``.  The main property under test is the cycle
engines' whole contract: over random case bases, random requests and random
configuration axes, the vectorized engine reproduces the stepwise golden
models *exactly* -- retrieval decision, ranked list, raw similarities, cycle
counts, instruction counters and memory-read counters.  Batches mixing attribute counts
within one type exercise the left-padded type passes, including attributes
no implementation holds and a type without implementations.  Two kernel
properties back it: the n-best FINALIZE cascade equals an O(I^2)
brute-force count, and after random deltas (row patches that shrink or
widen a row, some with brand-new attribute IDs) the case base's shared type
tables equal tables decoded from the unit's CB-MEM words and the
structural counts stay exact.
"""

import random

import numpy as np
import pytest

from repro.core import BoundsTable, CaseBase, FunctionRequest
from repro.core.case_base import ExecutionTarget, Implementation
from repro.cosim.vectorized import _nbest_finalize_cycles
from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.software import (
    SoftwareRetrievalUnit,
    microblaze_cost_model,
    microblaze_soft_multiply_model,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


#: Small, quick-to-build sizings; missing attributes included on purpose so
#: the probe/missing accounting is exercised.
SPEC = GeneratorSpec(
    type_count=3,
    implementations_per_type=5,
    attributes_per_implementation=5,
    attribute_type_count=8,
    missing_probability=0.25,
)


def check_hardware_exact(
    seed: int, salt: int, wide: bool, pipelined: bool, cache: bool,
    restart: bool, divider: bool, n_best: int,
) -> None:
    generator = CaseBaseGenerator(SPEC, seed=seed % 40)
    case_base = generator.case_base()
    requests = [generator.request(salt=salt + offset, attribute_count=4) for offset in range(3)]
    unit = HardwareRetrievalUnit(
        case_base,
        config=HardwareConfig(
            wide_attribute_fetch=wide,
            pipelined_datapath=pipelined,
            cache_reciprocals=cache,
            restart_attribute_search=restart,
            use_divider=divider,
            n_best=n_best,
        ),
    )
    for stepwise, vectorized in zip(
        unit.run_batch(requests, engine="stepwise"),
        unit.run_batch(requests, engine="vectorized"),
    ):
        assert stepwise.best_id == vectorized.best_id
        assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
        assert stepwise.ranked == vectorized.ranked
        assert stepwise.statistics == vectorized.statistics


def check_software_exact(seed: int, salt: int, inline: bool, soft_multiply: bool) -> None:
    generator = CaseBaseGenerator(SPEC, seed=seed % 40)
    case_base = generator.case_base()
    requests = [generator.request(salt=salt + offset, attribute_count=4) for offset in range(3)]
    cost_model = (
        microblaze_soft_multiply_model() if soft_multiply else microblaze_cost_model()
    )
    unit = SoftwareRetrievalUnit(case_base, cost_model=cost_model, inline_helpers=inline)
    for stepwise, vectorized in zip(
        unit.run_batch(requests, engine="stepwise"),
        unit.run_batch(requests, engine="vectorized"),
    ):
        assert stepwise.best_id == vectorized.best_id
        assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
        assert stepwise.statistics == vectorized.statistics
        assert stepwise.counters.counts == vectorized.counters.counts


def brute_force_finalize(similarities, capacity):
    """O(I^2) FINALIZE cycles straight from the register file's definition."""
    total = 0
    for i, value in enumerate(similarities):
        held = sorted(similarities[:i], reverse=True)[:capacity]
        at_least = sum(1 for entry in held if entry >= value)
        compares = at_least + 1 if at_least < len(held) else len(held)
        total += max(compares, 1)
    return total


def check_finalize_cascade(rows, capacity: int) -> None:
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    expected = [brute_force_finalize(row, capacity) for row in matrix.tolist()]
    assert _nbest_finalize_cycles(matrix, capacity).tolist() == expected


POOL = list(range(1, 7))


def check_padded_batches(
    seed: int, wide: bool, pipelined: bool, cache: bool, restart: bool, divider: bool,
    n_best: int, inline: bool,
) -> None:
    """Up to 8 requests sharing types, attribute counts 1..len(POOL) mixed.

    Attributes 7 and 8 have bounds but no implementation holds them, and
    type 3 has no implementations at all.
    """
    rng = random.Random(seed)
    bounds = BoundsTable()
    for attribute_id in range(1, 9):
        bounds.define(attribute_id, 0, 100)
    case_base = CaseBase(bounds=bounds)
    for type_id in (1, 2):
        function_type = case_base.add_type(type_id)
        for implementation_id in range(1, rng.randint(2, 6)):
            attributes = rng.sample(POOL, rng.randint(1, len(POOL)))
            function_type.add(Implementation(
                implementation_id, ExecutionTarget.GPP,
                {a: rng.randint(0, 100) for a in attributes},
            ))
    case_base.add_type(3)
    requests = [
        FunctionRequest(rng.choice((1, 1, 2, 3)), [
            (a, rng.randint(0, 100), rng.randint(1, 5))
            for a in sorted(rng.sample(range(1, 9), rng.randint(1, 8)))
        ])
        for _ in range(rng.randint(1, 8))
    ]
    hardware = HardwareRetrievalUnit(case_base, config=HardwareConfig(
        wide_attribute_fetch=wide, pipelined_datapath=pipelined, cache_reciprocals=cache,
        restart_attribute_search=restart, use_divider=divider, n_best=n_best,
    ))
    golden = hardware.run_batch(requests, engine="stepwise")
    for stepwise, vectorized in zip(golden, hardware.run_batch(requests, engine="vectorized")):
        assert stepwise.best_id == vectorized.best_id
        assert stepwise.ranked == vectorized.ranked
        assert stepwise.statistics == vectorized.statistics
    assert hardware.predict_cycles(requests) == [result.cycles for result in golden]
    for cost_model in (microblaze_cost_model(), microblaze_soft_multiply_model()):
        software = SoftwareRetrievalUnit(case_base, cost_model=cost_model, inline_helpers=inline)
        golden = software.run_batch(requests, engine="stepwise")
        for stepwise, vectorized in zip(golden, software.run_batch(requests, engine="vectorized")):
            assert stepwise.best_id == vectorized.best_id
            assert stepwise.statistics == vectorized.statistics
            assert stepwise.counters.counts == vectorized.counters.counts
        assert software.predict_cycles(requests) == [result.cycles for result in golden]


#: Attribute IDs no initial implementation holds: patches that add one
#: insert a brand-new column into the type's table.
FRESH_IDS = (7, 8)


def check_structural_after_deltas(
    seed: int, restart: bool, divider: bool, tables_match_words
) -> None:
    """Row patches (shrinks, widenings, new attribute IDs, removals,
    inserts), then the shared type tables equal tables decoded from the
    unit's CB-MEM words and stepwise == vectorized."""
    rng = random.Random(seed)
    bounds = BoundsTable()
    for attribute_id in POOL + list(FRESH_IDS):
        bounds.define(attribute_id, 0, 100)
    case_base = CaseBase(bounds=bounds)
    for type_id in (1, 2):
        function_type = case_base.add_type(type_id)
        for implementation_id in range(1, rng.randint(3, 7)):
            attributes = rng.sample(POOL, rng.randint(1, len(POOL)))
            function_type.add(Implementation(
                implementation_id, ExecutionTarget.GPP,
                {a: rng.randint(0, 100) for a in attributes},
            ))
    config = HardwareConfig(restart_attribute_search=restart, use_divider=divider, n_best=3)
    unit = HardwareRetrievalUnit(case_base, config=config)
    requests = [
        FunctionRequest(type_id, [(a, rng.randint(0, 100)) for a in sorted(rng.sample(POOL, count))])
        for type_id in (1, 2)
        for count in (1, 3, len(POOL))
    ] + [FunctionRequest(1, [(2, 50), (FRESH_IDS[0], 10)])]
    unit.predict_cycles(requests)
    for _ in range(4):
        type_id = rng.choice((1, 2))
        implementations = case_base.implementations(type_id)
        victim = rng.choice(implementations)
        choice = rng.random()
        if choice < 0.3:  # shrink: may leave a column no implementation holds
            keep = rng.sample(sorted(victim.attributes), rng.randint(1, len(victim.attributes)))
            case_base.replace_implementation(type_id, Implementation(
                victim.implementation_id, victim.target,
                {a: rng.randint(0, 100) for a in keep},
            ))
        elif choice < 0.5:  # widen, sometimes with a brand-new attribute ID
            pool = POOL + [rng.choice(FRESH_IDS)] if rng.random() < 0.5 else POOL
            grown = rng.sample(pool, rng.randint(min(len(victim.attributes), len(pool)), len(pool)))
            case_base.replace_implementation(type_id, Implementation(
                victim.implementation_id, victim.target,
                {a: rng.randint(0, 100) for a in grown},
            ))
        elif choice < 0.7 and len(implementations) > 1:
            case_base.remove_implementation(type_id, victim.implementation_id)
        else:
            taken = {i.implementation_id for i in implementations}
            case_base.add_implementation(type_id, Implementation(
                min(set(range(1, 20)) - taken), ExecutionTarget.DSP,
                {a: rng.randint(0, 100) for a in rng.sample(POOL + list(FRESH_IDS), rng.randint(1, 3))},
            ))
        tables_match_words(unit)
        fresh = HardwareRetrievalUnit(case_base.copy(), config=config)  # its own image
        golden = fresh.run_batch(requests, engine="stepwise")
        assert [r.statistics for r in unit.run_batch(requests, engine="vectorized")] == [
            r.statistics for r in golden
        ]
        assert unit.predict_cycles(requests) == [r.cycles for r in golden]


if HAVE_HYPOTHESIS:

    COMMON = settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @COMMON
    @given(
        seed=st.integers(0, 10_000),
        salt=st.integers(0, 100),
        wide=st.booleans(),
        pipelined=st.booleans(),
        cache=st.booleans(),
        restart=st.booleans(),
        divider=st.booleans(),
        n_best=st.integers(1, 8),
    )
    def test_hardware_engines_exact(seed, salt, wide, pipelined, cache, restart, divider, n_best):
        check_hardware_exact(seed, salt, wide, pipelined, cache, restart, divider, n_best)

    @COMMON
    @given(
        seed=st.integers(0, 10_000),
        salt=st.integers(0, 100),
        inline=st.booleans(),
        soft_multiply=st.booleans(),
    )
    def test_software_engines_exact(seed, salt, inline, soft_multiply):
        check_software_exact(seed, salt, inline, soft_multiply)

    @COMMON
    @given(
        seed=st.integers(0, 10_000),
        wide=st.booleans(),
        pipelined=st.booleans(),
        cache=st.booleans(),
        restart=st.booleans(),
        divider=st.booleans(),
        n_best=st.integers(1, 8),
        inline=st.booleans(),
    )
    def test_padded_type_passes_exact(
        seed, wide, pipelined, cache, restart, divider, n_best, inline
    ):
        check_padded_batches(seed, wide, pipelined, cache, restart, divider, n_best, inline)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        implementations=st.integers(0, 14),
        batch=st.integers(1, 3),
        capacity=st.integers(2, 18),
        tied=st.booleans(),
    )
    def test_finalize_cascade_matches_brute_force(data, implementations, batch, capacity, tied):
        values = st.integers(0, 2) if tied else st.integers(0, 65535)
        rows = [
            data.draw(st.lists(values, min_size=implementations, max_size=implementations))
            for _ in range(batch)
        ]
        check_finalize_cascade(rows, capacity)

    @COMMON
    @given(seed=st.integers(0, 10_000), restart=st.booleans(), divider=st.booleans())
    def test_structural_counts_exact_after_deltas(seed, restart, divider, tables_match_words):
        check_structural_after_deltas(seed, restart, divider, tables_match_words)

else:  # pragma: no cover - fallback sweep without hypothesis

    @pytest.mark.parametrize("seed", range(8))
    def test_hardware_engines_exact(seed):
        check_hardware_exact(
            seed, salt=seed * 5, wide=seed % 2 == 0, pipelined=seed % 3 == 0,
            cache=seed % 2 == 1, restart=seed % 4 == 0, divider=seed % 3 == 1,
            n_best=(seed % 4) + 1,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_software_engines_exact(seed):
        check_software_exact(
            seed, salt=seed * 5, inline=seed % 2 == 0, soft_multiply=seed % 3 == 0
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_padded_type_passes_exact(seed):
        check_padded_batches(
            seed, wide=seed % 2 == 0, pipelined=seed % 3 == 0, cache=seed % 2 == 1,
            restart=seed % 4 == 0, divider=seed % 3 == 1, n_best=(seed % 4) + 1,
            inline=seed % 2 == 1,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_finalize_cascade_matches_brute_force(seed):
        rng = np.random.default_rng(seed)
        implementations = int(rng.integers(0, 14))
        rows = rng.integers(0, 3 if seed % 2 else 65536, (3, implementations)).tolist()
        check_finalize_cascade(rows, capacity=int(rng.integers(2, 18)))

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_counts_exact_after_deltas(seed, tables_match_words):
        check_structural_after_deltas(
            seed, restart=seed % 2 == 0, divider=seed % 3 == 0,
            tables_match_words=tables_match_words,
        )
