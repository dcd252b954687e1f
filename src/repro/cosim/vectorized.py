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

* **One pass per function type.**  A batch's memo misses are grouped by
  type alone; their request blocks are left-padded to the group's widest
  request and priced together against the type's dense attribute table in
  the case base's shared columnar image
  (:class:`~repro.core.columnar.TypeTable`: one column per stored
  attribute ID in ascending order plus an all-absent sentinel; its float
  values equal the integral 16-bit CB-MEM words).  An
  attribute's insertion index in the type's short ID vector gives its
  column and its ``f_i(a)`` total by gathers and a prefix sum, so the
  structural counts, the similarity kernel and FINALIZE run over the
  whole ``(b, R, I)`` block at once; padded slots are never present.  The
  per-request counts then feed the cost formulas as plain ints.
* **FINALIZE as the register file's insertion cascade.**  The n-best compare
  cycles need, per implementation, how many of the earlier top-``n`` values
  are at least as similar; the cascade (each level keeps the running maximum
  of what reaches it and passes the smaller value down) yields them in
  ``n`` vectorized passes, O(``n * I``) instead of an ``I x I`` comparison.
* **Exact cycles in the request plans.**  ``hardware_cycles``/``software_cycles``
  keep each request's count per model configuration in its plan on the
  case base's one encoded image
  (:class:`~repro.memmap.image.DeltaTrackedImage`, shared by the hardware
  and software units), read before any grouping, so a batch of repeated
  requests does no NumPy work.  The image's one rule keeps the counts
  current: a delta window drops the plans of every type it touches or
  moves in the level-0 list, a full rebuild drops them all.  The
  full-result paths (``hardware_batch``/``software_batch``) and the
  stepwise golden path are never memoised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..core.exceptions import (
    HardwareModelError,
    ReproError,
    SoftwareModelError,
    UnknownFunctionTypeError,
)
from ..core.columnar import PAD_BLOCK, TypeTable
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
from ..memmap.image import DeltaTrackedImage, RequestPlan
from .engine import CycleEngine


@dataclass
class _TypeGroup:
    """The batch's requests for one function type, in request order."""

    table: TypeTable
    #: 0-based position of the type's block in the level-0 list.
    position: int
    member_indices: List[int] = field(default_factory=list)
    #: Encoded word image per member.
    words: List[Tuple[int, ...]] = field(default_factory=list)


class _Counts(NamedTuple):
    """One request's structural counts, as plain ints."""

    attributes: int  # R, the request's own attribute count
    matched: int  # matched (implementation, request attribute) pairs
    missing: int  # missing (implementation, request attribute) pairs
    probes: int  # attribute-list probes of the configured search
    supplemental_last: int  # block index of the largest request attribute


@dataclass
class _TypePass:
    """One type group evaluated at once, ``b`` requests padded to ``R`` slots.

    The counts leave NumPy as per-request ints (one ``tolist`` per count
    vector): the cost formulas then run in plain integer arithmetic, which
    beats a dozen scalar-broadcast NumPy calls for the one to few requests
    a type group usually holds.
    """

    counts: List[_Counts]
    similarities: np.ndarray  # (b, I) raw global similarities (zeros unless scored)
    #: Software branch counts per request: negative differences, penalty
    #: clamps, accumulator saturations (zeros unless counted).
    branches: List[Tuple[int, int, int]]


def _prepare_groups(
    image: DeltaTrackedImage,
    request_words: Iterable[Tuple[int, ...]],
    missing_bounds_error: Callable[[str], Exception],
) -> List[_TypeGroup]:
    """Validate the batch's encoded word images and group them by type.

    ``request_words`` may be lazy (encoding each request on demand), so that
    validation mirrors the stepwise walk per request, in request order:
    encoding errors first, then the unknown-type check of the level-0
    search, then (only when the type has implementations to score) the
    supplemental-list check for the lowest request attribute without a
    bounds entry.  Each ``(type, attribute IDs)`` signature is checked once.
    """
    groups: Dict[int, _TypeGroup] = {}
    checked = set()
    supplemental_index = image.supplemental_index
    for index, words in enumerate(request_words):
        type_id = words[0]
        group = groups.get(type_id)
        if group is None:
            position = image.positions.get(type_id)
            if position is None:
                raise UnknownFunctionTypeError(type_id)
            group = groups[type_id] = _TypeGroup(
                image.tables.table(type_id, current=True), position
            )
        if group.table.implementation_count:
            ids = words[1:-1:REQUEST_BLOCK_WORDS]
            if (type_id, ids) not in checked:
                for attribute_id in ids:
                    if attribute_id not in supplemental_index:
                        raise missing_bounds_error(
                            f"attribute {attribute_id} has no supplemental (bounds) entry"
                        )
                checked.add((type_id, ids))
        group.member_indices.append(index)
        group.words.append(words)
    return list(groups.values())


def _memoized_cycles(
    image: DeltaTrackedImage,
    model_key: Hashable,
    requests: Sequence[FunctionRequest],
    missing_bounds_error: Callable[[str], Exception],
    price_group: Callable[[_TypeGroup], List[int]],
    plans: Optional[Sequence[RequestPlan]] = None,
) -> List[int]:
    """Exact cycles per request through the requests' plans on the image
    (``plans``, when the caller already looked them up on it).

    A cycle count is a pure function of the encoded request words, the
    model configuration (``model_key``) and the image, so each plan keeps
    its counts in ``plan.cycles[model_key]``.  They are read before any
    grouping: an all-hit batch does no decoding and no NumPy work, and the
    misses are grouped by type and priced by ``price_group`` one type pass
    each (which returns one count per member, in member order).  Only
    successfully priced requests gain a count; the image drops plans as
    delta windows touch or move their type, and all of them on a full
    rebuild.
    """
    if plans is None:
        try:
            plans = [image.plan(request) for request in requests]
        except ReproError:
            # Raise what the in-order walk raises first: an earlier request
            # may fail validation before this one fails to encode.
            _prepare_groups(
                image, (image.plan(request).encoded.words for request in requests),
                missing_bounds_error,
            )
            raise
    cycles: List[Optional[int]] = [plan.cycles.get(model_key) for plan in plans]
    misses = [index for index, count in enumerate(cycles) if count is None]
    if misses:
        groups = _prepare_groups(
            image, [plans[index].encoded.words for index in misses], missing_bounds_error
        )
        for group in groups:
            for member, count in zip(group.member_indices, price_group(group)):
                index = misses[member]
                cycles[index] = plans[index].cycles[model_key] = count
    return cycles  # type: ignore[return-value]


#: Contents of an empty n-best register level (below every similarity).
_EMPTY_REGISTER = np.iinfo(np.int64).min


def _type_pass(
    image: DeltaTrackedImage,
    group: _TypeGroup,
    *,
    restart_search: bool,
    use_divider: bool,
    fraction_fmt,
    score: bool,
    count_branches: bool,
) -> _TypePass:
    """Structural counts and similarities of every request of one type group.

    The members' ``(ID, value, weight)`` request blocks are left-padded to
    the widest member (``R`` slots) and stacked into one ``(b, R, 3)``
    array, straight from the encoded words.  Each attribute's insertion index
    ``k`` in the type table's short ID vector (:class:`TypeTable`) gives
    ``f_i(a)`` totals through ``below[k]``; its table column is ``k`` when
    the ID is held there, else the sentinel.  Gathers on that column give
    the matched counts and, for the similarity kernel (``score``), the
    ``(b, R, I)`` presence and stored-value blocks.  With left padding the
    last slot holds every request's largest attribute, which is what the
    resume-search probe formula (``T_i = f_i(a_R) + R - matched_i(a_1 ..
    a_{R-1})``) and the supplemental walk read; the restart ablation sums
    ``f_i`` over all slots instead.
    """
    table = group.table
    implementation_count = table.implementation_count
    lengths = [len(words) // REQUEST_BLOCK_WORDS for words in group.words]
    width = max(lengths)
    block = np.array(
        [
            PAD_BLOCK * (width - length) + words[1:-1]
            for length, words in zip(lengths, group.words)
        ],
        dtype=np.int64,
    ).reshape(len(lengths), width, REQUEST_BLOCK_WORDS)
    ids = block[:, :, 0]
    insertion, column = table.locate(ids)
    held = table.holders[column]
    matched = held.sum(axis=1).tolist()
    # (implementation, request attribute) pairs per request
    pairs = [count * implementation_count for count in lengths]
    if restart_search:
        below = table.below[insertion].sum(axis=1).tolist()
        probes = [f + p for f, p in zip(below, pairs)]
    else:
        below = table.below[insertion[:, -1]].tolist()
        held_last = held[:, -1].tolist()
        probes = [
            f + p - (found - found_last)
            for f, p, found, found_last in zip(below, pairs, matched, held_last)
        ]
    batch_size = len(lengths)
    if implementation_count:
        # Every ID has a supplemental entry (checked by _prepare_groups);
        # padded slots land on position 0.
        positions = image.supplemental_ids.searchsorted(ids)
        supplemental_last = positions[:, -1].tolist()
    else:
        # Nothing is ever scored: the supplemental list is never walked.
        supplemental_last = [0] * batch_size
    counts = list(map(
        _Counts,
        lengths,
        matched,
        [p - found for p, found in zip(pairs, matched)],
        probes,
        supplemental_last,
    ))
    branches = [(0, 0, 0)] * batch_size
    if score and implementation_count:
        constants = (
            image.supplemental_divisors if use_divider
            else image.supplemental_reciprocals
        )[positions]
        # The float plane holds the integral 16-bit words exactly.
        similarities, negative, clamped, saturated = _similarity_kernel(
            table.present[column], table.values[column].astype(np.int64),
            block[:, :, 1], block[:, :, 2], constants,
            use_divider=use_divider,
            fraction_fmt=fraction_fmt,
            count_branches=count_branches,
        )
        if count_branches:
            branches = list(zip(negative.tolist(), clamped.tolist(), saturated.tolist()))
    else:
        similarities = np.zeros((batch_size, implementation_count), dtype=np.int64)
    return _TypePass(counts=counts, similarities=similarities, branches=branches)


def _similarity_kernel(
    present: np.ndarray,
    case_values: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    constants: np.ndarray,
    *,
    use_divider: bool,
    fraction_fmt,
    count_branches: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw global similarities plus the software model's branch counts.

    The per-attribute datapath (absolute difference, penalty multiply by the
    reciprocal or divide by the divisor in ``constants``, ``1 - x``,
    weighting) is evaluated for the whole ``(batch, attributes,
    implementations)`` cube of ``present``/``case_values`` at once.
    Contributions are non-negative and missing attributes contribute zero,
    so the running sum only grows and the saturating accumulator ends at
    ``min(sum, max)``.  Only the software model's saturation branch count
    steps through the attributes in ascending-ID order, because it fires
    exactly where the stepwise accumulator saturates.

    Returns ``(similarities, negative_differences, penalty_clamps,
    accumulator_saturations)``; the three counters (software model branch
    statistics, skipped for the hardware path via ``count_branches=False``)
    are per-request totals over all matched (implementation, attribute)
    pairs.
    """
    batch_size, request_count, implementation_count = present.shape
    max_raw = fraction_fmt.max_raw
    request_values = values[:, :, None]  # (B, R, 1)
    constants = constants[:, :, None]  # (B, R, 1)
    difference = np.abs(request_values - case_values)  # (B, R, I)
    if use_divider:
        penalty = divide_fraction_array(difference, constants, fraction_fmt)
    else:
        penalty = multiply_fraction_array(difference, constants, fraction_fmt)
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
            product = difference * constants
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

    @staticmethod
    def _hardware_pass(
        unit: HardwareRetrievalUnit, image: DeltaTrackedImage, group: _TypeGroup, *, score: bool
    ) -> _TypePass:
        config = unit.config
        return _type_pass(
            image, group,
            restart_search=config.restart_attribute_search,
            use_divider=config.use_divider,
            fraction_fmt=unit.fraction_format,
            score=score,
            count_branches=False,
        )

    def hardware_batch(
        self, unit: HardwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[HardwareRetrievalResult]:
        config = unit.config
        if config.trace:
            raise HardwareModelError(
                "FSM tracing requires the stepwise cycle engine (engine='stepwise')"
            )
        image = unit.pricing_image()
        groups = _prepare_groups(
            image, map(unit.encoded_request_words, requests), HardwareModelError
        )
        results: List[HardwareRetrievalResult] = [None] * len(requests)  # type: ignore[list-item]
        for group in groups:
            table = group.table
            implementation_count = table.implementation_count
            priced = self._hardware_pass(unit, image, group, score=True)
            similarities = priced.similarities
            if implementation_count:
                best_indices = np.argmax(similarities, axis=1).tolist()
                best_updates = prefix_maxima_count(similarities).tolist()
            else:
                best_indices = best_updates = [0] * len(group.member_indices)
            if config.n_best > 1:
                finalize_cycles = _nbest_finalize_cycles(similarities, config.n_best).tolist()
                # Stable descending sort = the register file's tie rule
                # (equal similarities keep their level-1 list order).
                ranked_orders = np.argsort(
                    -similarities, axis=1, kind="stable"
                )[:, : config.n_best]
            else:
                finalize_cycles = [implementation_count] * len(group.member_indices)
                ranked_orders = None
            rows = zip(
                group.member_indices, priced.counts,
                self._hardware_costs(config, group, priced.counts),
                finalize_cycles, best_updates, best_indices,
            )
            for row, (index, counts, costs, finalize, updates, best_index) in enumerate(rows):
                case_base_reads, request_reads, supplemental_probes, base_cycles = costs
                statistics = HardwareStatistics(
                    cycles=base_cycles + finalize,
                    case_base_reads=case_base_reads,
                    request_reads=request_reads,
                    implementations_visited=implementation_count,
                    attribute_probes=counts.probes,
                    supplemental_probes=supplemental_probes,
                    missing_attributes=counts.missing,
                    best_updates=updates,
                )
                results[index] = self._assemble_hardware(
                    unit, table, statistics, similarities[row], best_index,
                    None if ranked_orders is None else ranked_orders[row],
                )
        return results

    def hardware_cycles(
        self,
        unit: HardwareRetrievalUnit,
        requests: Sequence[FunctionRequest],
        plans: Optional[Sequence[RequestPlan]] = None,
    ) -> List[int]:
        """Exact per-request cycle counts without assembling result objects.

        Same derivation as :meth:`hardware_batch` -- the shared
        :meth:`_hardware_costs` terms plus the per-request FINALIZE cycles --
        but skipping ranking assembly and statistics objects, and answering
        repeated requests from their plans (:func:`_memoized_cycles`).  For
        the baseline ``n_best == 1`` unit FINALIZE costs one cycle per
        implementation, so the similarity kernel is skipped; only the n-best
        register file makes the count value-dependent.  The cosim
        differential suite asserts equality with the stepwise golden walk
        across all configuration axes.
        """
        config = unit.config
        if config.trace:
            raise HardwareModelError(
                "FSM tracing requires the stepwise cycle engine (engine='stepwise')"
            )
        image = unit.pricing_image()

        def price(group: _TypeGroup) -> List[int]:
            priced = self._hardware_pass(unit, image, group, score=config.n_best > 1)
            costs = self._hardware_costs(config, group, priced.counts)
            if config.n_best > 1:
                finalize = _nbest_finalize_cycles(priced.similarities, config.n_best).tolist()
            else:
                finalize = [group.table.implementation_count] * len(costs)
            return [terms[-1] + cycles for terms, cycles in zip(costs, finalize)]

        # The configuration's field values: a plain tuple hashes in C, the
        # dataclass's generated ``__hash__`` in Python on every lookup.
        model_key = tuple(vars(config).values())
        return _memoized_cycles(
            image, model_key, requests, HardwareModelError, price, plans
        )

    @staticmethod
    def _hardware_costs(
        config: HardwareConfig, group: _TypeGroup, counts: List[_Counts]
    ) -> List[Tuple[int, int, int, int]]:
        """``(case_base_reads, request_reads, supplemental_probes,
        base_cycles)`` per request of one type pass.

        Every term of the hardware cycle and memory-access accounting except
        the FINALIZE phase (n-best register-file compares) and the
        ``best_updates`` counter follows from the request's structural
        counts; ``base_cycles`` is the total without FINALIZE.  The single
        source of truth for :meth:`hardware_batch` and the cycles-only
        prediction fast path (:meth:`hardware_cycles`).
        """
        implementation_count = group.table.implementation_count
        walkers = (
            min(implementation_count, 1) if config.cache_reciprocals else implementation_count
        )
        request_words = 2 if config.wide_attribute_fetch else 3  # per attribute fetch
        constant_words = 2 if config.use_divider else 1  # bounds pair or reciprocal
        value_loads = 0 if config.wide_attribute_fetch else 1  # per matched attribute
        compute_cycles = 1 if config.pipelined_datapath else 3
        if config.use_divider:
            compute_cycles = compute_cycles - 1 + HardwareConfig.DIVIDER_CYCLES
        accumulate_cycles = 1 if config.pipelined_datapath else 2
        list_reads = (
            (group.position + 2)  # level-0 search incl. pointer load
            + (2 * implementation_count + 1)  # implementation ID/pointer loads + terminator
        )
        costs = []
        for request_count, matched, missing, probes, supplemental_last in counts:
            # Each walker probes the supplemental list up to the largest
            # request attribute, re-probing once per found attribute, and
            # loads each attribute's constant words.
            supplemental_probes = walkers * (supplemental_last + request_count)
            case_base_reads = (
                list_reads
                + supplemental_probes
                + walkers * constant_words * request_count
                + probes
                + value_loads * matched
            )
            # The type word, then per implementation the request's attribute
            # blocks and its terminator.
            request_reads = 1 + implementation_count * (request_words * request_count + 1)
            costs.append((
                case_base_reads,
                request_reads,
                supplemental_probes,
                # One cycle per memory read, then the datapath: compute and
                # accumulate per matched attribute, one cycle per missing
                # attribute (s_i = 0), one to deliver the result.
                case_base_reads
                + request_reads
                + (compute_cycles + accumulate_cycles) * matched
                + missing
                + 1,
            ))
        return costs

    @staticmethod
    def _assemble_hardware(
        unit: HardwareRetrievalUnit,
        table: TypeTable,
        statistics: HardwareStatistics,
        similarities: np.ndarray,
        best_index: int,
        ranked_order: Optional[np.ndarray],
    ) -> HardwareRetrievalResult:
        if table.implementation_count:
            best_id = int(table.impl_ids[best_index])
            best_raw = int(similarities[best_index])
        else:
            best_id, best_raw = 0, -1
        if ranked_order is not None:
            ranked = [
                (int(table.impl_ids[int(i)]), int(similarities[int(i)]))
                for i in ranked_order
            ]
        else:
            ranked = [(best_id, best_raw)] if best_raw >= 0 else []
        return HardwareRetrievalResult(
            type_id=table.type_id,
            best_id=best_id,
            best_similarity_raw=max(best_raw, 0),
            ranked=ranked,
            statistics=statistics,
            clock_mhz=unit.config.clock_mhz,
            fraction_format=unit.fraction_format,
            trace=None,
        )

    # -- software ------------------------------------------------------------------

    @staticmethod
    def _software_pass(
        unit: SoftwareRetrievalUnit, image: DeltaTrackedImage, group: _TypeGroup
    ) -> Tuple[_TypePass, List[int]]:
        """One type pass plus each request's best-update count.

        Unlike the hardware unit, the soft-core's branch costs depend on the
        datapath outcomes (negative, clamped, saturated local similarities),
        so the similarity kernel always runs.
        """
        priced = _type_pass(
            image, group,
            restart_search=False,
            use_divider=False,
            fraction_fmt=unit.fraction_format,
            score=True,
            count_branches=True,
        )
        if group.table.implementation_count:
            improved = prefix_maxima_count(priced.similarities).tolist()
        else:
            improved = [0] * len(group.member_indices)
        return priced, improved

    def software_batch(
        self, unit: SoftwareRetrievalUnit, requests: Sequence[FunctionRequest]
    ) -> List[SoftwareRetrievalResult]:
        image = unit.pricing_image()
        groups = _prepare_groups(
            image, map(unit.encoded_request_words, requests), SoftwareModelError
        )
        results: List[SoftwareRetrievalResult] = [None] * len(requests)  # type: ignore[list-item]
        for group in groups:
            priced, improved = self._software_pass(unit, image, group)
            similarities = priced.similarities
            if group.table.implementation_count:
                best_indices = np.argmax(similarities, axis=1).tolist()
            else:
                best_indices = [0] * len(group.member_indices)
            rows = zip(group.member_indices, priced.counts, priced.branches, improved, best_indices)
            for row, (index, counts, branches, updates, best_index) in enumerate(rows):
                results[index] = self._assemble_software(
                    unit, group, counts, branches, updates, similarities[row], best_index
                )
        return results

    def software_cycles(
        self,
        unit: SoftwareRetrievalUnit,
        requests: Sequence[FunctionRequest],
        plans: Optional[Sequence[RequestPlan]] = None,
    ) -> List[int]:
        """Exact per-request cycle counts without assembling result objects.

        Mirrors :meth:`software_batch` up to the shared
        :meth:`_software_instruction_counters` accounting, then totals the
        counters against the unit's cost model directly -- no
        result/statistics construction -- and answers repeated requests from
        their plans (:func:`_memoized_cycles`).
        Differentially tested against the stepwise golden walk.
        """
        image = unit.pricing_image()
        cost_model = unit.cost_model

        def price(group: _TypeGroup) -> List[int]:
            priced, improved = self._software_pass(unit, image, group)
            return [
                self._software_instruction_counters(
                    unit, group, counts, branches, updates
                )[0].total_cycles(cost_model)
                for counts, branches, updates in zip(priced.counts, priced.branches, improved)
            ]

        # The cost model's cycle table is a dict; its plain-valued items key
        # the model.
        model_key = (unit.inline_helpers,) + tuple(
            (kind.value, cost) for kind, cost in cost_model.cycles.items()
        )
        return _memoized_cycles(
            image, model_key, requests, SoftwareModelError, price, plans
        )

    @staticmethod
    def _software_instruction_counters(
        unit: SoftwareRetrievalUnit,
        group: _TypeGroup,
        counts: _Counts,
        branches: Tuple[int, int, int],
        improved: int,
    ) -> tuple:
        """Emitted-instruction counters of one run: ``(counters, memory_reads,
        helper_calls)``.

        Shared by :meth:`_assemble_software` and the cycles-only
        :meth:`software_cycles` path -- the single source of truth for the
        soft-core instruction accounting.
        """
        inline = unit.inline_helpers
        request_count = counts.attributes
        implementation_count = group.table.implementation_count
        position = group.position
        matched_total = counts.matched
        missing_total = counts.missing
        probe_total = counts.probes
        negative, clamped, saturated = branches
        advance_total = probe_total - matched_total - missing_total
        supplemental_advances = counts.supplemental_last  # per scoring walk
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

        emitted = {
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
            emitted[InstructionClass.STORE] = 3 * helper_calls
            emitted[InstructionClass.CALL] = helper_calls
            emitted[InstructionClass.RETURN] = helper_calls
        counters = InstructionCounters(
            counts={kind: count for kind, count in emitted.items() if count > 0}
        )
        return counters, memory_reads, helper_calls

    @staticmethod
    def _assemble_software(
        unit: SoftwareRetrievalUnit,
        group: _TypeGroup,
        counts: _Counts,
        branches: Tuple[int, int, int],
        improved: int,
        similarities: np.ndarray,
        best_index: int,
    ) -> SoftwareRetrievalResult:
        counters, memory_reads, helper_calls = (
            VectorizedCycleEngine._software_instruction_counters(
                unit, group, counts, branches, improved
            )
        )
        table = group.table
        if table.implementation_count:
            best_id = int(table.impl_ids[best_index])
            best_raw = int(similarities[best_index])
        else:
            best_id, best_raw = 0, -1
        statistics = SoftwareStatistics(
            cycles=counters.total_cycles(unit.cost_model),
            instructions=counters.total_instructions(),
            memory_reads=memory_reads,
            implementations_visited=table.implementation_count,
            helper_calls=0 if unit.inline_helpers else helper_calls,
            missing_attributes=counts.missing,
        )
        return SoftwareRetrievalResult(
            type_id=table.type_id,
            best_id=best_id,
            best_similarity_raw=max(best_raw, 0),
            statistics=statistics,
            cost_model=unit.cost_model,
            counters=counters,
            fraction_format=unit.fraction_format,
        )
