"""The vectorized cycle engine: exact analytic co-simulation in NumPy.

The stepwise models charge cycles per FSM state visit (hardware) or per
emitted instruction (software) while walking the word image one access at a
time.  Every one of those visit counts is a deterministic function of a few
structural quantities, so instead of re-walking the lists the vectorized
engine computes the quantities with array operations and *derives* the exact
counters:

* ``k``      -- the requested type's position in the level-0 list;
* ``I``      -- implementation variants of the type, ``R`` request attributes;
* ``T_i``    -- attribute-list probes of implementation ``i``.  The stepwise
  resume-search (section 4.1) is a sorted merge walk, whose probe count has
  the closed form ``T_i = f_i(a_R) + R - matched_i(a_1..a_{R-1})`` where
  ``f_i(a)`` counts list entries with ID below ``a`` (the restart ablation
  uses ``T_i = sum_r f_i(a_r) + R``);
* ``P``      -- supplemental-list probes per walk: ``p_R + R`` with ``p_R``
  the block index of the largest request attribute (the resume walk probes
  each block at most once plus one re-probe per found attribute);
* ``m_i`` / ``miss_i`` -- matched/missing request attributes per
  implementation, and the data-dependent branch counts of the software model
  (negative differences, penalty clamps, accumulator saturations).

Raw 16-bit similarities are computed with the vectorized Q-format helpers of
:mod:`repro.fixedpoint.vectorized`, operation for operation in the stepwise
datapath order, so similarities, rankings, cycle counts, instruction
counters and memory-read counters are all bit-identical with the golden
models -- the differential and property suites under ``tests/cosim`` assert
exactly that across every configuration axis.

Three kernels keep the per-request cost low:

* **Structural counts by one flat ``searchsorted``.**  Each type's attribute
  lists are one sorted key vector (row ``i`` offset by ``i << ROW_KEY_SHIFT``),
  so the presence, stored value and ``f_i(a)`` of every (request attribute,
  implementation) pair come from a single binary search over it, memoised
  per ``(type, attribute-ID set)`` signature.
* **FINALIZE as the register file's insertion cascade.**  The n-best compare
  cycles need, per implementation, how many of the earlier top-``n`` values
  are at least as similar; the cascade (each level keeps the running maximum
  of what reaches it and passes the smaller value down) yields them in
  ``n`` vectorized passes, O(``n * I``) instead of an ``I x I`` comparison.
* **A per-request exact-cycle memo.**  ``hardware_cycles``/``software_cycles``
  map ``(model configuration, encoded request words)`` to cycles in a bounded
  LRU map on the :class:`~repro.cosim.columnar.ColumnarImage`, consulted
  before any grouping, so a batch of repeated requests does no NumPy work.
  Delta windows keep an entry only when its type's arrays were reused
  unchanged and the supplemental list is untouched (the rule the structural
  cache follows); any other window, and every full rebuild, drops it.  The
  full-result paths (``hardware_batch``/``software_batch``) and the stepwise
  golden path are never memoised.

Requests sharing a ``(type_id, attribute-ID set)`` signature are stacked and
evaluated against the type's columnar matrices in one broadcast pass, which
is what makes scenario-scale batches orders of magnitude faster than the
word-at-a-time walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import (
    HardwareModelError,
    ReproError,
    SoftwareModelError,
    UnknownFunctionTypeError,
)
from ..core.request import FunctionRequest
from ..fixedpoint.vectorized import (
    divide_fraction_array,
    multiply_fraction_array,
    multiply_fractions_array,
    one_minus_array,
    prefix_maxima_count,
)
from ..hardware.retrieval_unit import (
    HardwareConfig,
    HardwareRetrievalResult,
    HardwareRetrievalUnit,
    HardwareStatistics,
)
from ..memmap.request_list import REQUEST_BLOCK_WORDS
from ..software.isa import InstructionClass, InstructionCounters
from ..software.retrieval_sw import (
    SoftwareRetrievalResult,
    SoftwareRetrievalUnit,
    SoftwareStatistics,
)
from .columnar import CYCLE_MEMO_CAPACITY, ColumnarImage, TypeColumns
from .engine import CycleEngine


@dataclass
class _Group:
    """Requests sharing one ``(type_id, attribute-ID tuple)`` signature."""

    type_id: int
    attribute_ids: Tuple[int, ...]
    member_indices: List[int]
    values: np.ndarray  # (B, R) raw attribute values
    weights: np.ndarray  # (B, R) raw UQ0.16 weights


@dataclass(frozen=True)
class _HardwareGroupCosts:
    """Request-value-independent hardware cost terms of one batch group."""

    case_base_reads: int
    request_reads: int
    attribute_probes: int
    supplemental_probes: int
    missing_attributes: int
    #: Total cycles excluding the per-request FINALIZE phase.
    base_cycles: int


@dataclass
class _Structural:
    """Value-independent per-implementation quantities of one group."""

    present: np.ndarray  # (R, I) request attribute present in implementation
    case_values: np.ndarray  # (R, I) raw stored values (0 where absent)
    matched_total: int  # matched (implementation, request attribute) pairs
    missing_total: int  # missing (implementation, request attribute) pairs
    probe_total: int  # attribute-list probes of the configured search
    supplemental_last: int  # block index of the largest request attribute
    reciprocals: np.ndarray  # (R,) raw 1/(1+dmax) constants
    divisors: np.ndarray  # (R,) 1 + dmax divisors (divider variant)


def _decode_encoded_request(words: Sequence[int]) -> Tuple[int, Tuple[int, ...], List[int], List[int]]:
    """Split an encoded request image into (type, IDs, values, weights).

    Strided tuple slices instead of per-block comprehensions: this runs once
    per request per batch on the serving path.
    """
    end = 1 + len(words) - 2  # exclude the type word and the terminator
    ids = tuple(words[1:end:REQUEST_BLOCK_WORDS])
    values = list(words[2:end:REQUEST_BLOCK_WORDS])
    weights = list(words[3:end:REQUEST_BLOCK_WORDS])
    return words[0], ids, values, weights


def _prepare_groups(
    columnar: ColumnarImage,
    encoded_requests: Iterable[Sequence[int]],
    missing_bounds_error: Callable[[str], Exception],
) -> List[_Group]:
    """Validate and group the batch's encoded word images, in request order.

    ``encoded_requests`` may be a lazy ``map`` of the unit's encoder, so that
    validation mirrors the stepwise walk per request: encoding errors first,
    then the unknown-type check of the level-0 search, then (only when the
    type has implementations to score) the supplemental-list check for the
    lowest request attribute without a bounds entry.
    """
    building: Dict[Tuple[int, Tuple[int, ...]], _Group] = {}
    raw_rows: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[List[int], List[int]]]] = {}
    for index, words in enumerate(encoded_requests):
        type_id, ids, values, weights = _decode_encoded_request(words)
        key = (type_id, ids)
        group = building.get(key)
        if group is None:
            # Signature-level validation, mirroring the stepwise walk of the
            # first request carrying it: unknown type first, then (only when
            # the type has implementations to score) the lowest request
            # attribute without a supplemental (bounds) entry.
            columns = columnar.types.get(type_id)
            if columns is None:
                raise UnknownFunctionTypeError(type_id)
            if columns.implementation_count > 0:
                supplemental_index = columnar.supplemental_index
                for attribute_id in ids:
                    if attribute_id not in supplemental_index:
                        raise missing_bounds_error(
                            f"attribute {attribute_id} has no supplemental (bounds) entry"
                        )
            group = _Group(type_id, ids, [], np.empty(0), np.empty(0))
            building[key] = group
            raw_rows[key] = []
        group.member_indices.append(index)
        raw_rows[key].append((values, weights))
    for key, group in building.items():
        rows = raw_rows[key]
        group.values = np.array([values for values, _ in rows], dtype=np.int64)
        group.weights = np.array([weights for _, weights in rows], dtype=np.int64)
    return list(building.values())


def _memoized_cycles(
    columnar: ColumnarImage,
    model_key: Hashable,
    requests: Sequence[FunctionRequest],
    encode: Callable[[FunctionRequest], Sequence[int]],
    missing_bounds_error: Callable[[str], Exception],
    price_groups: Callable[[List[_Group]], List[int]],
) -> List[int]:
    """Exact cycles per request through the columnar image's cycle memo.

    A cycle count is a pure function of the encoded request words, the
    model configuration (``model_key``) and the image, so the memo maps
    ``(model_key, words)`` to cycles.  It is consulted before any grouping:
    an all-hit batch does no decoding and no NumPy work, and the misses are
    grouped and priced by ``price_groups`` in one call (which returns one
    count per grouped request, group by group).  Only successfully priced
    requests enter the memo; it is a bounded LRU map
    (:data:`~repro.cosim.columnar.CYCLE_MEMO_CAPACITY`), carried forward
    across delta windows for types whose arrays were reused unchanged and
    dropped whole when the supplemental list changes.
    """
    try:
        keys = [(model_key, encode(request)) for request in requests]
    except ReproError:
        # Raise what the in-order walk raises first: an earlier request may
        # fail validation before this one fails to encode.
        _prepare_groups(columnar, map(encode, requests), missing_bounds_error)
        raise
    memo = columnar.cycle_memo
    cycles: List[Optional[int]] = [None] * len(keys)
    misses: List[int] = []
    for index, key in enumerate(keys):
        count = memo.get(key)
        if count is None:
            misses.append(index)
        else:
            memo.move_to_end(key)
            cycles[index] = count
    if misses:
        groups = _prepare_groups(
            columnar, [keys[index][1] for index in misses], missing_bounds_error
        )
        priced = price_groups(groups)
        members = [misses[member] for group in groups for member in group.member_indices]
        for index, count in zip(members, priced):
            cycles[index] = count
            memo[keys[index]] = count
        while len(memo) > CYCLE_MEMO_CAPACITY:
            memo.popitem(last=False)
    return cycles  # type: ignore[return-value]


#: Structural-cache entries kept per columnar image (cleared wholesale beyond).
_STRUCTURAL_CACHE_CAPACITY = 256

#: Contents of an empty n-best register level (below every similarity).
_EMPTY_REGISTER = np.iinfo(np.int64).min


def _structural_counts(
    columnar: ColumnarImage,
    columns: TypeColumns,
    attribute_ids: Tuple[int, ...],
    *,
    restart_search: bool,
) -> _Structural:
    """Memoised :func:`_compute_structural_counts` per (type, signature).

    The quantities are value-independent, so hot serving signatures reuse
    them across batches; the cache lives on the columnar image, and the
    image's delta-patch path carries entries forward for types whose arrays
    were reused unchanged.
    """
    cache = columnar.structural_cache
    key = (columns.type_id, attribute_ids, restart_search)
    structural = cache.get(key)
    if structural is None:
        structural = _compute_structural_counts(
            columnar, columns, attribute_ids, restart_search=restart_search
        )
        if len(cache) >= _STRUCTURAL_CACHE_CAPACITY:
            cache.clear()
        cache[key] = structural
    return structural


def _compute_structural_counts(
    columnar: ColumnarImage,
    columns: TypeColumns,
    attribute_ids: Tuple[int, ...],
    *,
    restart_search: bool,
) -> _Structural:
    """Presence/value matrices and exact probe counts for one signature.

    One ``searchsorted`` over the type's flat key vector
    (:attr:`TypeColumns.search_keys`: row ``i`` of ``entry_ids`` offset by
    ``i << ROW_KEY_SHIFT``) answers every (request attribute,
    implementation) lookup at once.  The insertion position of query
    ``(i << ROW_KEY_SHIFT) + a`` minus the row start is ``f_i(a)``, the
    number of list entries with ID below ``a`` -- the resume-search probe
    formula uses it for the last request attribute, the restart formula sums
    it over all of them.  The key at that position equals the query exactly
    when ``a`` is present, and ``entry_values`` at the same flat position is
    the stored value.  Queries above every entry of a full-width last row
    land past the end, so positions are clipped before the lookup (a
    clipped position never matches: its key belongs to a smaller ID).
    """
    request_count = len(attribute_ids)
    ids = np.array(attribute_ids, dtype=np.int64)
    implementation_count, width = columns.entry_ids.shape
    if width:
        keys, row_offsets, row_starts = columns.search_keys
        queries = ids[:, None] + row_offsets  # (R, I)
        positions = np.searchsorted(keys, queries)
        below = positions - row_starts
        np.minimum(positions, keys.shape[0] - 1, out=positions)
        present = keys[positions] == queries
        case_values = columns.entry_values.ravel()[positions]
        case_values *= present
    else:
        below = np.zeros((request_count, implementation_count), dtype=np.int64)
        present = np.zeros((request_count, implementation_count), dtype=bool)
        case_values = below
    pairs = request_count * implementation_count
    matched_total = int(np.count_nonzero(present))
    if restart_search:
        probe_total = int(below.sum()) + pairs
    else:
        probe_total = (
            int(below[-1].sum()) + pairs - int(np.count_nonzero(present[:-1]))
        )
    if implementation_count > 0:
        positions = [columnar.supplemental_index[a] for a in attribute_ids]
        reciprocals = columnar.supplemental_reciprocals[positions]
        divisors = columnar.supplemental_divisors[positions]
        supplemental_last = positions[-1]
    else:
        # Nothing is ever scored: the supplemental list is never walked.
        reciprocals = np.zeros(request_count, dtype=np.int64)
        divisors = np.ones(request_count, dtype=np.int64)
        supplemental_last = 0
    return _Structural(
        present=present,
        case_values=case_values,
        matched_total=matched_total,
        missing_total=pairs - matched_total,
        probe_total=probe_total,
        supplemental_last=supplemental_last,
        reciprocals=reciprocals,
        divisors=divisors,
    )


def _similarity_kernel(
    structural: _Structural,
    values: np.ndarray,
    weights: np.ndarray,
    *,
    use_divider: bool,
    fraction_fmt,
    count_branches: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw global similarities plus the software model's branch counts.

    The per-attribute datapath (absolute difference, penalty multiply or
    divide, ``1 - x``, weighting) is evaluated for the whole ``(batch,
    attributes, implementations)`` cube at once.  Contributions are
    non-negative and missing attributes contribute zero, so the running sum
    only grows and the saturating accumulator ends at ``min(sum, max)``.
    Only the software model's saturation branch count steps through the
    attributes in ascending-ID order, because it fires exactly where the
    stepwise accumulator saturates.

    Returns ``(similarities, negative_differences, penalty_clamps,
    accumulator_saturations)``; the three counters (software model branch
    statistics, skipped for the hardware path via ``count_branches=False``)
    are per-request totals over all matched (implementation, attribute)
    pairs.
    """
    batch_size, request_count = values.shape
    implementation_count = structural.present.shape[1]
    max_raw = fraction_fmt.max_raw
    present = structural.present[None, :, :]  # (1, R, I)
    case_values = structural.case_values[None, :, :]  # (1, R, I)
    request_values = values[:, :, None]  # (B, R, 1)
    difference = np.abs(request_values - case_values)  # (B, R, I)
    if use_divider:
        penalty = divide_fraction_array(
            difference, structural.divisors[None, :, None], fraction_fmt
        )
    else:
        penalty = multiply_fraction_array(
            difference, structural.reciprocals[None, :, None], fraction_fmt
        )
    local = one_minus_array(penalty, fraction_fmt)
    contribution = multiply_fractions_array(local, weights[:, :, None], fraction_fmt)
    contribution *= present
    accumulator = np.minimum(contribution.sum(axis=1), max_raw)
    negative = clamped = saturated = np.zeros(batch_size, dtype=np.int64)
    if count_branches:
        negative = ((case_values > request_values) & present).sum(axis=(1, 2))
        if not use_divider:
            # The software model's clamp branch fires on the *unclamped*
            # product, which the saturating multiply above discards.
            product = difference * structural.reciprocals[None, :, None]
            clamped = ((product > max_raw) & present).sum(axis=(1, 2))
        saturated = np.zeros(batch_size, dtype=np.int64)
        running = np.zeros((batch_size, implementation_count), dtype=np.int64)
        for row in range(request_count):
            total = running + contribution[:, row]
            saturated += ((total > max_raw) & present[:, row]).sum(axis=1)
            running = np.minimum(total, max_raw)
    return accumulator, negative, clamped, saturated


def _nbest_finalize_cycles(similarities: np.ndarray, capacity: int) -> np.ndarray:
    """Exact insertion-compare cycles of the sorted n-best register file.

    ``similarities`` is the group's ``(B, I)`` matrix; the return value is
    the ``(B,)`` total compare-cycle vector.  Before implementation ``i`` is
    considered the file holds the ``min(i, n)`` best earlier entries in
    descending order; the scan visits every entry at least as similar as
    ``s_i`` plus the terminating smaller entry -- ``min(e_i + 1, min(i,
    n))`` compares for ``e_i`` such entries -- and each consideration costs
    at least one cycle (only ``i = 0`` meets an empty file).

    ``e_i`` comes from the register file's own insertion cascade: level 1
    keeps the running maximum of what arrives and passes the smaller of the
    arriving and held values down to level 2, and so on.  Level ``k``'s
    entry before step ``i`` is therefore the exclusive prefix maximum of
    what level ``k - 1`` passed down -- the ``k``-th largest earlier
    similarity, or the int64 minimum while the level is empty -- and ``e_i``
    counts the levels whose entry is at least ``s_i``: ``n`` levels of a
    few ufunc calls each, O(``n * I``) per request.
    """
    batch_size, implementation_count = similarities.shape
    if implementation_count == 0:
        return np.zeros(batch_size, dtype=np.int64)
    examined = np.zeros((batch_size, implementation_count), dtype=np.int64)
    arriving = similarities
    held_before = np.empty_like(similarities)
    held_before[:, 0] = _EMPTY_REGISTER
    # A prefix has at most I - 1 entries, so deeper levels stay empty.
    levels = min(capacity, implementation_count - 1)
    for level in range(levels):
        np.maximum.accumulate(arriving[:, :-1], axis=1, out=held_before[:, 1:])
        np.add(examined, held_before >= similarities, out=examined)
        if level + 1 < levels:
            arriving = np.minimum(arriving, held_before)
    examined += 1
    np.minimum(examined, np.minimum(np.arange(implementation_count), capacity), out=examined)
    return examined.sum(axis=1) + 1  # i = 0: min(1, 0) + 1 = one compare


class VectorizedCycleEngine(CycleEngine):
    """Batch evaluation of the cycle models with exact derived counters."""

    name = "vectorized"

    # -- hardware ------------------------------------------------------------------

    def hardware_batch(
        self, unit: HardwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[HardwareRetrievalResult]:
        config = unit.config
        if config.trace:
            raise HardwareModelError(
                "FSM tracing requires the stepwise cycle engine (engine='stepwise')"
            )
        columnar = unit.columnar_image()
        groups = _prepare_groups(
            columnar, map(unit.encoded_request_words, requests), HardwareModelError
        )
        results: List[HardwareRetrievalResult] = [None] * len(requests)  # type: ignore[list-item]
        for group in groups:
            columns = columnar.types[group.type_id]
            structural = _structural_counts(
                columnar, columns, group.attribute_ids,
                restart_search=config.restart_attribute_search,
            )
            costs = self._cached_hardware_group_costs(
                columnar, config, columns, structural, group.attribute_ids
            )
            similarities, _, _, _ = _similarity_kernel(
                structural, group.values, group.weights,
                use_divider=config.use_divider,
                fraction_fmt=unit.fraction_format,
                count_branches=False,
            )
            if columns.implementation_count:
                best_indices = np.argmax(similarities, axis=1)
                best_updates = prefix_maxima_count(similarities)
            else:
                best_indices = best_updates = np.zeros(len(group.member_indices), np.int64)
            if config.n_best > 1:
                finalize_cycles = _nbest_finalize_cycles(similarities, config.n_best)
                # Stable descending sort = the register file's tie rule
                # (equal similarities keep their level-1 list order).
                ranked_orders = np.argsort(
                    -similarities, axis=1, kind="stable"
                )[:, : config.n_best]
            else:
                finalize_cycles = np.full(
                    len(group.member_indices), columns.implementation_count, np.int64
                )
                ranked_orders = None
            for row, index in enumerate(group.member_indices):
                results[index] = self._assemble_hardware(
                    unit, group, columns, costs, similarities[row],
                    int(best_indices[row]), int(best_updates[row]),
                    int(finalize_cycles[row]),
                    None if ranked_orders is None else ranked_orders[row],
                )
        return results

    def hardware_cycles(
        self, unit: HardwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[int]:
        """Exact per-request cycle counts without assembling result objects.

        Same derivation as :meth:`hardware_batch` -- the shared
        :meth:`_hardware_group_costs` terms plus the per-request FINALIZE
        cycles -- but skipping ranking assembly and statistics objects, and
        answering repeated requests from the per-request cycle memo
        (:func:`_memoized_cycles`).  For the baseline ``n_best == 1`` unit
        every request of a signature group costs exactly the same; only the
        n-best register file makes the count value-dependent.  The cosim
        differential suite asserts equality with the stepwise golden walk
        across all configuration axes.
        """
        config = unit.config
        if config.trace:
            raise HardwareModelError(
                "FSM tracing requires the stepwise cycle engine (engine='stepwise')"
            )
        columnar = unit.columnar_image()

        def price(groups: List[_Group]) -> List[int]:
            cycles: List[int] = []
            for group in groups:
                columns = columnar.types[group.type_id]
                structural = _structural_counts(
                    columnar, columns, group.attribute_ids,
                    restart_search=config.restart_attribute_search,
                )
                costs = self._cached_hardware_group_costs(
                    columnar, config, columns, structural, group.attribute_ids
                )
                if config.n_best > 1:
                    similarities, _, _, _ = _similarity_kernel(
                        structural, group.values, group.weights,
                        use_divider=config.use_divider,
                        fraction_fmt=unit.fraction_format,
                        count_branches=False,
                    )
                    finalize = _nbest_finalize_cycles(similarities, config.n_best)
                    cycles.extend((costs.base_cycles + finalize).tolist())
                else:
                    count = costs.base_cycles + columns.implementation_count
                    cycles.extend([count] * len(group.member_indices))
            return cycles

        # The configuration's field values: a plain tuple hashes in C, the
        # dataclass's generated ``__hash__`` in Python on every lookup.
        model_key = tuple(vars(config).values())
        return _memoized_cycles(
            columnar, model_key, requests, unit.encoded_request_words,
            HardwareModelError, price,
        )

    @classmethod
    def _cached_hardware_group_costs(
        cls,
        columnar: ColumnarImage,
        config: HardwareConfig,
        columns: TypeColumns,
        structural: _Structural,
        attribute_ids: Tuple[int, ...],
    ) -> "_HardwareGroupCosts":
        """Memoised :meth:`_hardware_group_costs` per (type, signature, config).

        The terms are value-independent, so hot serving signatures reuse them
        across batches; entries ride the columnar image's structural cache
        and are carried forward by the delta-patch path exactly like the
        structural quantities themselves.
        """
        cache = columnar.structural_cache
        key = (columns.type_id, attribute_ids, config, "hardware-costs")
        costs = cache.get(key)
        if costs is None:
            costs = cls._hardware_group_costs(
                config, columns, structural, len(attribute_ids)
            )
            if len(cache) >= _STRUCTURAL_CACHE_CAPACITY:
                cache.clear()
            cache[key] = costs
        return costs

    @staticmethod
    def _hardware_group_costs(
        config: HardwareConfig,
        columns: TypeColumns,
        structural: _Structural,
        request_count: int,
    ) -> "_HardwareGroupCosts":
        """Value-independent cost terms shared by every request of one group.

        Every term of the hardware cycle and memory-access accounting except
        the FINALIZE phase (n-best register-file compares) and the
        ``best_updates`` counter depends only on the group's structural
        quantities -- all requests sharing a ``(type, attribute-set)``
        signature therefore share these numbers.  Computing them once per
        group is both the single source of truth for
        :meth:`_assemble_hardware` and the whole trick behind the
        cycles-only prediction fast path (:meth:`hardware_cycles`).
        """
        implementation_count = columns.implementation_count
        position = columns.position
        matched_total = structural.matched_total
        missing_total = structural.missing_total
        probe_total = structural.probe_total
        supplemental_probes_per_walk = structural.supplemental_last + request_count
        walkers = (
            min(implementation_count, 1) if config.cache_reciprocals else implementation_count
        )

        request_block = request_count * (2 if config.wide_attribute_fetch else 3) + 1
        supplemental_walk = supplemental_probes_per_walk + request_count * (
            2 if config.use_divider else 1
        )
        search_value_loads = 0 if config.wide_attribute_fetch else matched_total
        compute_cycles = 1 if config.pipelined_datapath else 3
        if config.use_divider:
            compute_cycles = compute_cycles - 1 + HardwareConfig.DIVIDER_CYCLES
        accumulate_cycles = 1 if config.pipelined_datapath else 2

        return _HardwareGroupCosts(
            case_base_reads=(
                (position + 2)
                + (2 * implementation_count + 1)
                + walkers * supplemental_walk
                + probe_total
                + search_value_loads
            ),
            request_reads=1 + implementation_count * request_block,
            attribute_probes=probe_total,
            supplemental_probes=walkers * supplemental_probes_per_walk,
            missing_attributes=missing_total,
            base_cycles=(
                1  # fetch request type
                + (position + 2)  # level-0 search incl. pointer load
                + (2 * implementation_count + 1)  # implementation ID/pointer loads + terminator
                + implementation_count * request_block  # request attribute fetches
                + walkers * supplemental_walk
                + probe_total
                + search_value_loads
                + matched_total * compute_cycles
                + missing_total  # one cycle per missing attribute (s_i = 0)
                + matched_total * accumulate_cycles
                + 1  # deliver result
            ),
        )

    @staticmethod
    def _assemble_hardware(
        unit: HardwareRetrievalUnit,
        group: _Group,
        columns: TypeColumns,
        costs: "_HardwareGroupCosts",
        similarities: np.ndarray,
        best_index: int,
        best_updates: int,
        finalize_cycles: int,
        ranked_order: Optional[np.ndarray],
    ) -> HardwareRetrievalResult:
        config = unit.config
        implementation_count = columns.implementation_count
        statistics = HardwareStatistics(
            case_base_reads=costs.case_base_reads,
            request_reads=costs.request_reads,
            implementations_visited=implementation_count,
            attribute_probes=costs.attribute_probes,
            supplemental_probes=costs.supplemental_probes,
            missing_attributes=costs.missing_attributes,
            best_updates=best_updates,
        )
        statistics.cycles = costs.base_cycles + finalize_cycles

        if implementation_count:
            best_id = int(columns.impl_ids[best_index])
            best_raw = int(similarities[best_index])
        else:
            best_id, best_raw = 0, -1
        if ranked_order is not None:
            ranked = [
                (int(columns.impl_ids[int(i)]), int(similarities[int(i)]))
                for i in ranked_order
            ]
        else:
            ranked = [(best_id, best_raw)] if best_raw >= 0 else []
        return HardwareRetrievalResult(
            type_id=group.type_id,
            best_id=best_id,
            best_similarity_raw=max(best_raw, 0),
            ranked=ranked,
            statistics=statistics,
            clock_mhz=config.clock_mhz,
            fraction_format=unit.fraction_format,
            trace=None,
        )

    # -- software ------------------------------------------------------------------

    def software_batch(
        self, unit: SoftwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[SoftwareRetrievalResult]:
        columnar = unit.columnar_image()
        groups = _prepare_groups(
            columnar, map(unit.encoded_request_words, requests), SoftwareModelError
        )
        results: List[SoftwareRetrievalResult] = [None] * len(requests)  # type: ignore[list-item]
        for group in groups:
            columns = columnar.types[group.type_id]
            structural = _structural_counts(
                columnar, columns, group.attribute_ids, restart_search=False
            )
            similarities, negative, clamped, saturated = _similarity_kernel(
                structural, group.values, group.weights,
                use_divider=False,
                fraction_fmt=unit.fraction_format,
                count_branches=True,
            )
            if columns.implementation_count:
                best_indices = np.argmax(similarities, axis=1)
                best_updates = prefix_maxima_count(similarities)
            else:
                best_indices = best_updates = np.zeros(len(group.member_indices), np.int64)
            for row, index in enumerate(group.member_indices):
                results[index] = self._assemble_software(
                    unit, group, columns, structural,
                    similarities[row], int(negative[row]), int(clamped[row]), int(saturated[row]),
                    int(best_indices[row]), int(best_updates[row]),
                )
        return results

    def software_cycles(
        self, unit: SoftwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[int]:
        """Exact per-request cycle counts without assembling result objects.

        Mirrors :meth:`software_batch` up to the shared
        :meth:`_software_instruction_counters` accounting, then totals the
        counters against the unit's cost model directly -- no
        result/statistics construction -- and answers repeated requests from
        the per-request cycle memo (:func:`_memoized_cycles`).  Unlike the
        hardware unit, the soft-core's branch costs depend on the datapath
        outcomes (negative, clamped, saturated local similarities), so the
        similarity kernel still runs on a miss; only the assembly is
        skipped.  Differentially tested against the stepwise golden walk.
        """
        columnar = unit.columnar_image()
        cost_model = unit.cost_model

        def price(groups: List[_Group]) -> List[int]:
            cycles: List[int] = []
            for group in groups:
                columns = columnar.types[group.type_id]
                structural = _structural_counts(
                    columnar, columns, group.attribute_ids, restart_search=False
                )
                similarities, negative, clamped, saturated = _similarity_kernel(
                    structural, group.values, group.weights,
                    use_divider=False,
                    fraction_fmt=unit.fraction_format,
                    count_branches=True,
                )
                if columns.implementation_count:
                    best_updates = prefix_maxima_count(similarities)
                else:
                    best_updates = np.zeros(len(group.member_indices), np.int64)
                for row in range(len(group.member_indices)):
                    counters, _, _ = self._software_instruction_counters(
                        unit, group, columns, structural,
                        int(negative[row]), int(clamped[row]), int(saturated[row]),
                        int(best_updates[row]),
                    )
                    cycles.append(counters.total_cycles(cost_model))
            return cycles

        # The cost model's cycle table is a dict; its plain-valued items key
        # the model.
        model_key = (unit.inline_helpers,) + tuple(
            (kind.value, cost) for kind, cost in cost_model.cycles.items()
        )
        return _memoized_cycles(
            columnar, model_key, requests, unit.encoded_request_words,
            SoftwareModelError, price,
        )

    @staticmethod
    def _software_instruction_counters(
        unit: SoftwareRetrievalUnit,
        group: _Group,
        columns: TypeColumns,
        structural: _Structural,
        negative: int,
        clamped: int,
        saturated: int,
        improved: int,
    ) -> tuple:
        """Emitted-instruction counters of one run: ``(counters, memory_reads,
        helper_calls)``.

        Shared by :meth:`_assemble_software` and the cycles-only
        :meth:`software_cycles` path -- the single source of truth for the
        soft-core instruction accounting.
        """
        inline = unit.inline_helpers
        request_count = len(group.attribute_ids)
        implementation_count = columns.implementation_count
        position = columns.position
        matched_total = structural.matched_total
        missing_total = structural.missing_total
        probe_total = structural.probe_total
        advance_total = probe_total - matched_total - missing_total
        supplemental_advances = structural.supplemental_last  # per scoring walk
        supplemental_probes = supplemental_advances + request_count
        #: main() plus, per implementation, the scoring helper, one
        #: supplemental and one attribute-search helper per request attribute
        #: and the local-similarity helper per matched attribute.
        helper_calls = (
            1
            + implementation_count * (1 + 2 * request_count)
            + matched_total
        )

        memory_reads = (
            1  # request type
            + (position + 2)  # type probes + implementation-list pointer
            + (2 * implementation_count + 1)  # implementation IDs/pointers + terminator
            + implementation_count * (3 * request_count + 1)  # request blocks + terminator
            + implementation_count * (supplemental_probes + request_count)  # probes + reciprocals
            + probe_total
            + matched_total  # attribute value loads
        )

        counts = {
            InstructionClass.LOAD: memory_reads + (0 if inline else 3 * helper_calls),
            InstructionClass.ALU: (
                4  # main() setup
                + (2 * position + 1)  # type search compares and pointer advances
                + 4 * implementation_count + 2 * improved + 1  # implementation loop
                + implementation_count * (4 * request_count + 1)  # request fetch loop
                + implementation_count * (2 * supplemental_advances + request_count)
                + 3 * advance_total + 3 * matched_total + missing_total  # attribute search
                + missing_total  # s_i = 0 assignment
                + 6 * matched_total + negative  # local similarity + accumulate
                + (0 if inline else 2 * helper_calls)  # stack pointer adjustments
            ),
            InstructionClass.IMMEDIATE: (
                4 + 2  # main() setup + best initialisation
                + 3 * implementation_count  # score_implementation() setup
                + clamped + saturated  # saturation constants
            ),
            InstructionClass.MULTIPLY: 2 * matched_total,
            InstructionClass.SHIFT: matched_total,
            InstructionClass.BRANCH_TAKEN: (
                position  # type-search advance branches
                + improved + implementation_count + 1  # implementation loop + terminator
                + implementation_count  # request-list terminator probes
                + implementation_count * 2 * supplemental_advances
                + probe_total  # every attribute-search probe branches once
                + missing_total  # s_i = 0 skip
                + negative + clamped + saturated + matched_total  # datapath + loop back
            ),
            InstructionClass.BRANCH_NOT_TAKEN: (
                1  # type match
                + implementation_count + (implementation_count - improved)
                + implementation_count * request_count  # request fetch compares
                + implementation_count * request_count  # supplemental match compares
                + 2 * advance_total + matched_total  # attribute-search compares
                + (matched_total - negative)
                + (matched_total - clamped)
                + (matched_total - saturated)
            ),
        }
        if not inline:
            counts[InstructionClass.STORE] = 3 * helper_calls
            counts[InstructionClass.CALL] = helper_calls
            counts[InstructionClass.RETURN] = helper_calls
        counters = InstructionCounters(
            counts={kind: count for kind, count in counts.items() if count > 0}
        )
        return counters, memory_reads, helper_calls

    @staticmethod
    def _assemble_software(
        unit: SoftwareRetrievalUnit,
        group: _Group,
        columns: TypeColumns,
        structural: _Structural,
        similarities: np.ndarray,
        negative: int,
        clamped: int,
        saturated: int,
        best_index: int,
        improved: int,
    ) -> SoftwareRetrievalResult:
        counters, memory_reads, helper_calls = (
            VectorizedCycleEngine._software_instruction_counters(
                unit, group, columns, structural, negative, clamped, saturated, improved
            )
        )
        implementation_count = columns.implementation_count
        missing_total = structural.missing_total
        inline = unit.inline_helpers

        if implementation_count:
            best_id = int(columns.impl_ids[best_index])
            best_raw = int(similarities[best_index])
        else:
            best_id, best_raw = 0, -1
        statistics = SoftwareStatistics(
            cycles=counters.total_cycles(unit.cost_model),
            instructions=counters.total_instructions(),
            memory_reads=memory_reads,
            implementations_visited=implementation_count,
            helper_calls=0 if inline else helper_calls,
            missing_attributes=missing_total,
        )
        return SoftwareRetrievalResult(
            type_id=group.type_id,
            best_id=best_id,
            best_similarity_raw=max(best_raw, 0),
            statistics=statistics,
            cost_model=unit.cost_model,
            counters=counters,
            fraction_format=unit.fraction_format,
        )
