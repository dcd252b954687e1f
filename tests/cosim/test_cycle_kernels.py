"""The vectorized engine's closed-form kernels and its per-request cycle memo.

* FINALIZE: the n-best insertion cascade against an O(I^2) brute-force
  oracle written from the register file's definition (and against the
  hardware model's :class:`NBestRegisterFile` itself).
* Structural counts: the shared per-type attribute table against the
  attribute lists, and the vectorized counts against the stepwise walk on
  delta-patched tables -- a shrunk row and a removed row whose attribute
  no other implementation holds -- for both attribute-search modes and the
  divider variant.
* The cycle memo: value-exact keys, the per-type drop rule of delta windows
  (touched types and types moved in the level-0 list), the bound, and that
  neither a memo flood nor a delta to another type rebuilds a type's table.
"""

import numpy as np
import pytest

from repro.core import BoundsTable, CaseBase, FunctionRequest
from repro.core.case_base import ExecutionTarget, Implementation
from repro.core.exceptions import UnknownFunctionTypeError
from repro.core.columnar import PAD_ID
from repro.cosim.vectorized import _nbest_finalize_cycles
from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.hardware.datapath import NBestRegisterFile
from repro.memmap.image import PLAN_CAPACITY
from repro.software import SoftwareRetrievalUnit


def brute_force_finalize(similarities, capacity):
    """O(I^2) FINALIZE cycles straight from the register file's definition."""
    total = 0
    for i, value in enumerate(similarities):
        held = sorted(similarities[:i], reverse=True)[:capacity]
        at_least = sum(1 for entry in held if entry >= value)
        compares = at_least + 1 if at_least < len(held) else len(held)
        total += max(compares, 1)
    return total


def register_file_finalize(similarities, capacity):
    """FINALIZE cycles of the hardware model's register file."""
    register = NBestRegisterFile(capacity)
    return sum(
        register.consider(int(value), implementation_id)
        for implementation_id, value in enumerate(similarities, start=1)
    )


def check_cascade(matrix, capacity):
    matrix = np.asarray(matrix, dtype=np.int64).reshape(len(matrix), -1)
    expected = [brute_force_finalize(list(row), capacity) for row in matrix.tolist()]
    assert _nbest_finalize_cycles(matrix, capacity).tolist() == expected


class TestFinalizeCascade:
    @pytest.mark.parametrize("capacity", [2, 3, 5, 8, 20])
    def test_heavy_ties(self, capacity):
        rng = np.random.default_rng(capacity)
        for implementations in range(0, 14):
            check_cascade(rng.integers(0, 3, (4, implementations)), capacity)

    def test_capacity_at_least_implementations(self):
        rng = np.random.default_rng(7)
        for implementations in range(0, 9):
            matrix = rng.integers(0, 65536, (3, implementations))
            for capacity in (implementations, implementations + 1, implementations + 9):
                check_cascade(matrix, max(capacity, 2))

    @pytest.mark.parametrize("implementations", [0, 1])
    def test_degenerate_widths(self, implementations):
        matrix = np.zeros((2, implementations), dtype=np.int64)
        expected = [implementations, implementations]  # one compare per variant
        assert _nbest_finalize_cycles(matrix, 4).tolist() == expected

    def test_all_equal_and_monotone_rows(self):
        for row in ([5] * 9, list(range(9)), list(range(9, 0, -1))):
            for capacity in (2, 4, 9):
                check_cascade([row], capacity)

    def test_oracle_is_the_register_file(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            row = rng.integers(0, 4, int(rng.integers(0, 12))).tolist()
            capacity = int(rng.integers(2, 10))
            assert brute_force_finalize(row, capacity) == register_file_finalize(
                row, capacity
            )


# -- structural counts on delta-patched tables -------------------------------


def _explicit_bounds():
    bounds = BoundsTable()
    for attribute_id in range(1, 8):
        bounds.define(attribute_id, 0, 200)
    return bounds


def _patched_case_base():
    """Type 1: the highest-ID (last) implementation is a full-width row."""
    case_base = CaseBase(bounds=_explicit_bounds())
    first = case_base.add_type(1, name="patched")
    first.add(Implementation(1, ExecutionTarget.GPP, {1: 10, 2: 40, 4: 90, 5: 20}))
    first.add(Implementation(2, ExecutionTarget.FPGA, {2: 70, 3: 15}))
    first.add(Implementation(3, ExecutionTarget.DSP, {1: 150, 3: 60, 6: 5}))
    first.add(Implementation(4, ExecutionTarget.GPP, {1: 80, 2: 90, 3: 100, 4: 110}))
    second = case_base.add_type(2, name="untouched")
    second.add(Implementation(1, ExecutionTarget.GPP, {1: 30, 7: 60}))
    second.add(Implementation(2, ExecutionTarget.GPP, {2: 35, 7: 190}))
    return case_base


PATCHED_REQUESTS = [
    FunctionRequest(1, [(1, 60), (3, 40), (7, 100)]),  # 7 is past every row
    FunctionRequest(1, [(2, 80), (6, 10)]),
    FunctionRequest(1, [(4, 120)]),
    FunctionRequest(1, [(1, 0), (2, 200), (3, 100), (4, 10), (5, 50), (6, 90), (7, 20)]),
    FunctionRequest(2, [(1, 20), (7, 150)]),
]


def _stepwise_statistics(case_base, config, requests):
    # A copy encodes its own image: the reference shares no state with the
    # live unit's patched one.
    fresh = HardwareRetrievalUnit(case_base.copy(), config=config)
    return [vars(result.statistics) for result in fresh.run_batch(requests, engine="stepwise")]


@pytest.mark.parametrize("restart", [False, True])
@pytest.mark.parametrize("divider", [False, True])
def test_structural_counts_on_patched_columns(restart, divider, tables_match_words):
    case_base = _patched_case_base()
    config = HardwareConfig(restart_attribute_search=restart, use_divider=divider, n_best=3)
    unit = HardwareRetrievalUnit(case_base, config=config)
    unit.run_batch(PATCHED_REQUESTS, engine="vectorized")  # build the tables
    table = case_base.type_tables.table(1)
    # Shrink implementation 1: the table is patched in place, not rebuilt;
    # ID 7 is above every ID of the type.
    case_base.replace_implementation(
        1, Implementation(1, ExecutionTarget.GPP, {2: 45, 5: 25})
    )
    tables_match_words(unit)
    assert case_base.type_tables.table(1) is table
    assert [r.statistics for r in unit.run_batch(PATCHED_REQUESTS, engine="vectorized")] == [
        r.statistics for r in unit.run_batch(PATCHED_REQUESTS, engine="stepwise")
    ]
    assert unit.predict_cycles(PATCHED_REQUESTS) == [
        statistics["cycles"]
        for statistics in _stepwise_statistics(case_base, config, PATCHED_REQUESTS)
    ]
    # Removing implementation 4 takes attribute 4's last holder: its column
    # goes, exactly as in a fresh build.
    case_base.remove_implementation(1, 4)
    tables_match_words(unit)
    assert 4 not in table.attribute_ids.tolist()
    assert [vars(r.statistics) for r in unit.run_batch(PATCHED_REQUESTS, engine="vectorized")] == (
        _stepwise_statistics(case_base, config, PATCHED_REQUESTS)
    )


def test_structural_lookups_match_the_attribute_lists():
    case_base = _patched_case_base()
    table = case_base.type_tables.table(1)
    lists = [
        case_base.get_type(1).implementations[int(i)].attributes for i in table.impl_ids
    ]
    stored = sorted({a for attributes in lists for a in attributes})
    assert table.attribute_ids.tolist() == stored + [PAD_ID]  # sentinel last
    assert table.present.shape == table.values.shape == (len(stored) + 1, len(lists))
    assert not table.present[-1].any() and not table.values[-1].any()
    for column, attribute_id in enumerate(stored + [PAD_ID]):
        for row, attributes in enumerate(lists):
            assert table.present[column, row] == (attribute_id in attributes)
            assert table.values[column, row] == attributes.get(attribute_id, 0)
        assert table.holders[column] == sum(attribute_id in a for a in lists)
        # Insertion index ``column``: sum_i f_i(a) for any ID a it covers.
        assert table.below[column] == sum(1 for a in lists for b in a if b < attribute_id)
    for attribute_id in (0, 4, 7, 1 << 16):  # held, and between/above the IDs
        insertion = int(table.attribute_ids.searchsorted(attribute_id))
        assert table.below[insertion] == sum(1 for a in lists for b in a if b < attribute_id)


# -- exact cycles in the request plans ---------------------------------------------


def _priced(unit):
    """``signature -> cycles per model key`` of the image's priced plans."""
    return {
        key: dict(plan.cycles)
        for key, plan in unit.pricing_image().plans.items()
        if plan.cycles
    }


def _memo_types(unit):
    return {key[0] for key in _priced(unit)}


def test_memo_keys_on_values_not_just_the_signature():
    case_base = _patched_case_base()
    unit = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=3))
    golden = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=3))
    by_cycles = {}
    for value in range(0, 201, 5):
        request = FunctionRequest(1, [(1, value), (3, 200 - value)])
        by_cycles.setdefault(golden.run(request).cycles, request)
    assert len(by_cycles) >= 2, "the n-best FINALIZE cost should depend on the values"
    (first_cycles, first), (second_cycles, second) = list(by_cycles.items())[:2]
    assert unit.predict_cycles([first]) == [first_cycles]
    assert unit.predict_cycles([second]) == [second_cycles]  # its own entry
    assert unit.predict_cycles([second, first, second]) == [
        second_cycles, first_cycles, second_cycles
    ]
    assert len(_priced(unit)) == 2


def test_memo_follows_row_patches_per_type():
    case_base = _patched_case_base()
    unit = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=2))
    patched, untouched = PATCHED_REQUESTS[0], PATCHED_REQUESTS[4]
    unit.predict_cycles([patched, untouched])
    image = unit.pricing_image()
    carried = {key: plan for key, plan in image.plans.items() if key[0] == 2}
    untouched_table = case_base.type_tables.table(2)
    assert _memo_types(unit) == {1, 2}
    case_base.replace_implementation(
        1, Implementation(2, ExecutionTarget.FPGA, {1: 61, 3: 41})
    )
    assert unit.pricing_image() is image
    assert case_base.type_tables.table(2) is untouched_table  # kept as it was
    assert dict(image.plans) == carried  # type 1 dropped, type 2 kept (same plans)
    fresh = HardwareRetrievalUnit(case_base.copy(), config=HardwareConfig(n_best=2))
    assert unit.predict_cycles([patched, untouched]) == [
        result.cycles for result in fresh.run_batch([patched, untouched], engine="stepwise")
    ]


def test_bounds_change_drops_every_entry():
    case_base = CaseBase()  # derived bounds: a new extreme value moves them
    function_type = case_base.add_type(1)
    function_type.add(Implementation(1, ExecutionTarget.GPP, {1: 10, 2: 20}))
    function_type.add(Implementation(2, ExecutionTarget.GPP, {1: 30, 2: 5}))
    other = case_base.add_type(2)
    other.add(Implementation(1, ExecutionTarget.GPP, {1: 12, 2: 8}))
    requests = [FunctionRequest(1, [(1, 15), (2, 10)]), FunctionRequest(2, [(1, 20), (2, 9)])]
    unit = HardwareRetrievalUnit(case_base)
    unit.predict_cycles(requests)
    assert _memo_types(unit) == {1, 2}
    case_base.replace_implementation(
        1, Implementation(2, ExecutionTarget.GPP, {1: 900, 2: 5})
    )
    assert len(unit.pricing_image().plans) == 0
    fresh = HardwareRetrievalUnit(case_base.copy())
    assert unit.predict_cycles(requests) == [
        result.cycles for result in fresh.run_batch(requests, engine="stepwise")
    ]


def test_carry_forward_requires_the_same_supplemental_words():
    case_base = _patched_case_base()
    unit = HardwareRetrievalUnit(case_base)
    unit.predict_cycles(PATCHED_REQUESTS)
    image = unit.pricing_image()
    assert len(_priced(unit)) == len(PATCHED_REQUESTS)
    case_base.add_type(3)
    case_base.add_implementation(3, Implementation(1, ExecutionTarget.GPP, {1: 5}))
    assert len(_priced(unit)) == len(PATCHED_REQUESTS)  # nothing moved
    wider = BoundsTable()
    for attribute_id in range(1, 8):
        wider.define(attribute_id, 0, 400)
    case_base.bounds = wider
    assert len(unit.pricing_image().plans) == 0
    fresh = HardwareRetrievalUnit(case_base.copy())
    assert unit.predict_cycles(PATCHED_REQUESTS) == [
        result.cycles for result in fresh.run_batch(PATCHED_REQUESTS, engine="stepwise")
    ]


@pytest.mark.parametrize("software", [False, True])
def test_position_shift_drops_the_moved_types(software):
    """A type inserted before warm types moves them in the level-0 list."""
    case_base = CaseBase(bounds=_explicit_bounds())
    for type_id in (5, 6):
        function_type = case_base.add_type(type_id)
        function_type.add(Implementation(1, ExecutionTarget.GPP, {1: 10, 3: 30}))
        function_type.add(Implementation(2, ExecutionTarget.FPGA, {2: 20, 3: 90}))
    requests = [FunctionRequest(5, [(1, 12), (3, 40)]), FunctionRequest(6, [(2, 25)])]
    make = SoftwareRetrievalUnit if software else HardwareRetrievalUnit
    unit = make(case_base)
    before = unit.predict_cycles(requests)
    assert _memo_types(unit) == {5, 6}
    case_base.add_type(1)
    case_base.add_implementation(1, Implementation(1, ExecutionTarget.GPP, {1: 50}))
    assert unit.pricing_image().positions == {1: 0, 5: 1, 6: 2}
    assert _memo_types(unit) == set()
    after = unit.predict_cycles(requests)
    assert after != before
    fresh = make(case_base.copy())
    assert after == [r.cycles for r in fresh.run_batch(requests, engine="stepwise")]


def test_memo_flood_stays_bounded_and_spares_the_type_tables():
    case_base = _patched_case_base()
    unit = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=3))
    hot = FunctionRequest(1, [(1, 60), (3, 40)])
    hot_cycles = unit.predict_cycles([hot])
    image = unit.pricing_image()
    tables = dict(case_base.type_tables.types)
    flood = [
        FunctionRequest(1, [(1, value % 200), (3, value // 200)])
        for value in range(PLAN_CAPACITY + 200)
    ]
    for start in range(0, len(flood), 64):
        unit.predict_cycles(flood[start:start + 64])
    assert unit.pricing_image() is image
    assert len(image.plans) == len(_priced(unit)) == PLAN_CAPACITY
    for type_id, table in tables.items():
        assert case_base.type_tables.types[type_id] is table
    assert unit.predict_cycles([hot]) == hot_cycles


def test_software_memo_matches_stepwise():
    case_base = _patched_case_base()
    unit = SoftwareRetrievalUnit(case_base)
    golden = [result.cycles for result in unit.run_batch(PATCHED_REQUESTS, engine="stepwise")]
    assert unit.predict_cycles(PATCHED_REQUESTS) == golden
    assert unit.predict_cycles(PATCHED_REQUESTS[::-1]) == golden[::-1]  # all hits
    assert len(_priced(unit)) == len(PATCHED_REQUESTS)


def test_stepwise_and_full_results_bypass_the_memo():
    case_base = _patched_case_base()
    unit = HardwareRetrievalUnit(case_base)
    unit.predict_cycles(PATCHED_REQUESTS, engine="stepwise")
    unit.run_batch(PATCHED_REQUESTS, engine="vectorized")
    assert len(_priced(unit)) == 0


@pytest.mark.parametrize("engine", ["stepwise", "vectorized"])
def test_first_error_in_request_order(engine):
    """An unknown type before an unencodable request raises the former."""
    unit = HardwareRetrievalUnit(_patched_case_base())
    batch = [FunctionRequest(99, [(1, 16)]), FunctionRequest(1, [])]
    with pytest.raises(UnknownFunctionTypeError):
        unit.predict_cycles(batch, engine=engine)
