"""Cycle-accurate behavioural model of the FPGA retrieval unit (Fig. 6 / Fig. 7).

The model walks the same 16-bit-word memory images a synthesised unit would
(CB-MEM with the implementation tree and supplemental list, Req-MEM with the
request) and charges one clock cycle per memory word read and per datapath /
control step, following the state sequence of Fig. 6.  All arithmetic is done
on raw fixed-point values through the datapath components of
:mod:`repro.hardware.datapath`, so the numeric results are bit-identical with
the :mod:`repro.fixedpoint` reference and can be compared against the
floating-point :class:`repro.core.RetrievalEngine` (experiment E5).

Two optional optimisations model the paper's section-5 outlook:

* ``wide_attribute_fetch`` -- the "compacted attribute block" loading of ID and
  value in one memory access;
* ``pipelined_datapath`` -- overlapping the local-similarity arithmetic with the
  next memory fetch, which together with the wide fetch yields the "at least
  factor 2" speed-up the paper projects (experiment E7).

The n-most-similar extension (``n_best > 1``) adds a sorted register file and
its insertion compare cycles (experiment E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..core.case_base import CaseBase
from ..core.exceptions import HardwareModelError, UnknownFunctionTypeError
from ..core.request import FunctionRequest
from ..fixedpoint.qformat import QFormat, UQ0_16
from ..memmap.image import DeltaTrackedImage, RequestPlan
from ..memmap.ram import RamBlock
from ..memmap.words import END_OF_LIST

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..cosim.engine import CycleEngine
from .datapath import (
    AccumulatorUnit,
    BestComparatorUnit,
    DividerUnit,
    NBestRegisterFile,
    standard_datapath_components,
)
from .fsm import FsmTrace, RetrievalState


@dataclass(frozen=True)
class HardwareConfig:
    """Configuration of the retrieval unit instance.

    Parameters
    ----------
    clock_mhz:
        Operating clock used to convert cycle counts into wall-clock time.
        The paper compares hardware and software at 66 MHz even though the
        unit synthesises to 75 MHz.
    wide_attribute_fetch:
        Fetch ``(ID, value)`` pairs in one access (compacted blocks, section 5).
    pipelined_datapath:
        Overlap datapath arithmetic with the next fetch (section 5 outlook).
    cache_reciprocals:
        Keep the per-request-attribute ``1/(1+dmax)`` constants in small
        registers after the first implementation has been scored, so the
        supplemental list is only walked once per retrieval instead of once
        per implementation.  Part of the "compacted blocks" speed-up package
        of experiment E7.
    restart_attribute_search:
        Disable the resume-search optimisation of section 4.1 and restart every
        attribute lookup "from the top of the local list".  Only useful as the
        negative control of the linear-effort ablation; the paper's design (and
        the default here) resumes from the current position.
    use_divider:
        Replace the pre-computed-reciprocal multiplication with an iterative
        hardware divider (the design alternative the paper rejects in
        section 4.1).  The local similarity is then computed as
        ``1 - d / (1 + dmax)`` with a multi-cycle divide; results may differ
        from the reciprocal datapath by one least-significant bit.
    n_best:
        Number of most-similar implementations delivered (1 = paper baseline).
    trace:
        Record a full FSM trace (slower; intended for tests and debugging).
    """

    clock_mhz: float = 66.0
    wide_attribute_fetch: bool = False
    pipelined_datapath: bool = False
    cache_reciprocals: bool = False
    restart_attribute_search: bool = False
    use_divider: bool = False
    n_best: int = 1
    trace: bool = False

    #: Cycle count of one iterative 16-bit divide (one quotient bit per cycle).
    DIVIDER_CYCLES = 16

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise HardwareModelError("clock frequency must be positive")
        if self.n_best <= 0:
            raise HardwareModelError("n_best must be positive")


@dataclass
class HardwareStatistics:
    """Cycle and access counters of one hardware retrieval run."""

    cycles: int = 0
    case_base_reads: int = 0
    request_reads: int = 0
    implementations_visited: int = 0
    attribute_probes: int = 0
    supplemental_probes: int = 0
    missing_attributes: int = 0
    best_updates: int = 0

    @property
    def memory_reads(self) -> int:
        """Total word reads from both memories."""
        return self.case_base_reads + self.request_reads


@dataclass
class HardwareRetrievalResult:
    """Outcome of one hardware retrieval run."""

    type_id: int
    best_id: int
    best_similarity_raw: int
    ranked: List[Tuple[int, int]]
    statistics: HardwareStatistics
    clock_mhz: float
    fraction_format: QFormat = UQ0_16
    trace: Optional[FsmTrace] = None

    @property
    def best_similarity(self) -> float:
        """Best global similarity as a float (quantised to the fraction format)."""
        return self.fraction_format.to_float(self.best_similarity_raw)

    @property
    def cycles(self) -> int:
        """Total clock cycles of the run."""
        return self.statistics.cycles

    @property
    def time_us(self) -> float:
        """Wall-clock retrieval latency in microseconds at the configured clock."""
        return self.statistics.cycles / self.clock_mhz

    def ranked_ids(self) -> List[int]:
        """Implementation IDs in ranked (most similar first) order."""
        return [implementation_id for implementation_id, _ in self.ranked]

    def ranked_similarities(self) -> List[float]:
        """Ranked global similarities as floats."""
        return [self.fraction_format.to_float(raw) for _, raw in self.ranked]


class HardwareRetrievalUnit:
    """The retrieval unit: executes retrieval runs over the case base's CB-MEM.

    The encoded memory image is the case base's one
    :attr:`~repro.core.case_base.CaseBase.encoded_image`, shared with every
    other unit reading the same case base; the unit keeps its configuration,
    its datapath components and the CB-MEM :class:`RamBlock` of the stepwise
    walk.

    Parameters
    ----------
    case_base:
        The case base to load into CB-MEM.
    config:
        Hardware configuration options.

    Raises :class:`~repro.core.exceptions.EncodingError` when the case base
    cannot be encoded (past 16-bit word addressing).
    """

    def __init__(
        self,
        case_base: CaseBase,
        *,
        config: Optional[HardwareConfig] = None,
    ) -> None:
        self.config = config if config is not None else HardwareConfig()
        self.case_base = case_base
        self.fraction_format = case_base.encoded_image.fraction_format
        self._ram: Optional[RamBlock] = None
        #: The shared word list :attr:`case_base_ram` was built from.
        self._ram_words: Optional[List[int]] = None
        self._supplemental_base = 0
        self._components = standard_datapath_components()
        if self.config.use_divider:
            # The divider replaces the reciprocal multiplier (section 4.1's
            # rejected design alternative).
            del self._components["reciprocal_multiplier"]
            self._components["divider"] = DividerUnit()
        self._nbest: Optional[NBestRegisterFile] = (
            NBestRegisterFile(self.config.n_best) if self.config.n_best > 1 else None
        )

    # -- the shared image --------------------------------------------------------------

    def invalidate(self) -> None:
        """Force a full rebuild on next use of every image of the case base
        (after in-place edits of implementation objects)."""
        self.case_base.type_tables.invalidate()

    def pricing_image(self) -> DeltaTrackedImage:
        """The case base's current encoded image (the vectorized cycle engine
        prices from it; the shared type tables hang off it as ``tables``)."""
        return self.case_base.encoded_image

    def encoded_request_words(self, request: FunctionRequest) -> Tuple[int, ...]:
        """The request's encoded word image (from its plan on the shared image)."""
        return self.case_base.encoded_image.plan(request).encoded.words

    @property
    def case_base_ram(self) -> RamBlock:
        """CB-MEM as the stepwise walk reads it: a RAM over the shared words,
        built on the first read after each change of the image."""
        image = self.case_base.encoded_image
        words = image.words
        if words is not self._ram_words:
            self._ram = RamBlock.from_words(list(words), name="CB-MEM", validate=False)
            self._ram_words = words
            self._supplemental_base = image.supplemental_base
        return self._ram  # type: ignore[return-value]

    # -- helpers ------------------------------------------------------------------

    @property
    def accumulator(self) -> AccumulatorUnit:
        """The S accumulator component."""
        return self._components["accumulator"]  # type: ignore[return-value]

    @property
    def best_comparator(self) -> BestComparatorUnit:
        """The S_max comparator component."""
        return self._components["best_comparator"]  # type: ignore[return-value]

    def components(self) -> Dict[str, object]:
        """The datapath component instances (for the resource estimator and tests)."""
        result: Dict[str, object] = dict(self._components)
        if self._nbest is not None:
            result["n_best_register_file"] = self._nbest
        return result

    def _charge(
        self,
        stats: HardwareStatistics,
        trace: FsmTrace,
        state: RetrievalState,
        cycles: int,
        note: str = "",
    ) -> None:
        stats.cycles += cycles
        trace.record(state, cycles, note)

    def _read_cb(self, address: int, stats: HardwareStatistics) -> int:
        stats.case_base_reads += 1
        return self._ram.read(address)  # type: ignore[union-attr]

    def _read_cb_pair(self, address: int, stats: HardwareStatistics) -> Tuple[int, int]:
        stats.case_base_reads += 1
        return self._ram.read_pair(address)  # type: ignore[union-attr]

    def _read_req(self, ram: RamBlock, address: int, stats: HardwareStatistics) -> int:
        stats.request_reads += 1
        return ram.read(address)

    def _read_req_pair(self, ram: RamBlock, address: int, stats: HardwareStatistics) -> Tuple[int, int]:
        stats.request_reads += 1
        return ram.read_pair(address)

    # -- main entry point ----------------------------------------------------------

    def run(self, request: FunctionRequest) -> HardwareRetrievalResult:
        """Execute one retrieval run for the given request (stepwise model)."""
        return self.run_on_ram(
            self.case_base.encoded_image.plan(request).encoded.build_ram()
        )

    def run_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        engine: Union[str, "CycleEngine", None] = "auto",
    ) -> List[HardwareRetrievalResult]:
        """Execute one retrieval run per request through a cycle engine.

        ``engine`` selects the execution strategy: ``"stepwise"`` runs the
        golden word-at-a-time model per request, ``"vectorized"`` derives
        bit-identical results and exact cycle counters analytically from the
        case base's columnar image (orders of magnitude faster on large
        batches), and ``"auto"`` (default) picks the vectorized path unless the
        configuration requires the stepwise walk (FSM tracing).  Result ``i``
        belongs to request ``i``; an erroneous request raises the same
        exception the sequential model raises, and no partial results are
        returned.
        """
        from ..cosim.engine import resolve_cycle_engine

        selected = resolve_cycle_engine(engine, prefer_vectorized=not self.config.trace)
        return selected.hardware_batch(self, list(requests))

    def predict_cycles(
        self,
        requests: Sequence[FunctionRequest],
        *,
        engine: Union[str, "CycleEngine", None] = "auto",
        plans: Optional[Sequence[RequestPlan]] = None,
    ) -> List[int]:
        """Exact retrieval cycle count per request, without full results.

        The QoS-prediction companion of :meth:`run_batch`: admission-control
        layers need service times (``cycles / clock``) but no rankings, and
        the vectorized engine derives the counts from one pass per function
        type over the batch's structural counts (plus the n-best FINALIZE
        cycles) -- considerably cheaper than assembling result objects.
        The counts are guaranteed identical to ``[r.cycles for r in
        run_batch(requests)]`` on every engine (differentially tested).
        ``plans`` are the requests' plans on the shared image, when the
        caller already looked them up (the vectorized engine reads them).
        """
        from ..cosim.engine import resolve_cycle_engine

        selected = resolve_cycle_engine(engine, prefer_vectorized=not self.config.trace)
        return selected.hardware_cycles(self, list(requests), plans)

    def run_on_ram(self, request_ram: RamBlock) -> HardwareRetrievalResult:
        """Execute one retrieval run on an already encoded request memory."""
        config = self.config
        stats = HardwareStatistics()
        trace = FsmTrace(enabled=config.trace)
        for component in self._components.values():
            component.reset()
        self.accumulator.clear()
        self.best_comparator.clear()
        if self._nbest is not None:
            self._nbest.reset()
            self._nbest.clear()
        self.case_base_ram.reset_counters()  # also brings the RAM current
        request_ram.reset_counters()

        # --- fetch the requested function type -----------------------------------
        requested_type = self._read_req(request_ram, 0, stats)
        self._charge(stats, trace, RetrievalState.FETCH_REQUEST_TYPE, 1, f"type={requested_type}")

        # --- search the level-0 type list -----------------------------------------
        implementation_list_address = self._search_function_type(requested_type, stats, trace)

        # --- walk the implementation list ------------------------------------------
        reciprocal_cache: Optional[Dict[int, int]] = (
            {} if config.cache_reciprocals else None
        )
        implementation_cursor = implementation_list_address
        while True:
            implementation_id = self._read_cb(implementation_cursor, stats)
            self._charge(stats, trace, RetrievalState.SELECT_IMPLEMENTATION, 1,
                         f"impl={implementation_id}")
            if implementation_id == END_OF_LIST:
                break
            attribute_list_address = self._read_cb(implementation_cursor + 1, stats)
            self._charge(stats, trace, RetrievalState.SELECT_IMPLEMENTATION, 1, "load attr ptr")
            stats.implementations_visited += 1

            similarity_raw = self._score_implementation(
                request_ram, attribute_list_address, stats, trace, reciprocal_cache
            )

            updated = self.best_comparator.consider(similarity_raw, implementation_id)
            compare_cycles = 1
            if self._nbest is not None:
                compare_cycles = self._nbest.consider(similarity_raw, implementation_id)
            if updated:
                stats.best_updates += 1
            self._charge(
                stats, trace, RetrievalState.FINALIZE_IMPLEMENTATION, compare_cycles,
                f"S={similarity_raw} best={self.best_comparator.best_id}",
            )
            implementation_cursor += 2

        # --- deliver the result ------------------------------------------------------
        self._charge(stats, trace, RetrievalState.DELIVER_RESULT, 1)
        if self._nbest is not None:
            ranked = list(self._nbest.entries)
            ranked = [(impl_id, raw) for raw, impl_id in ranked]
        else:
            ranked = (
                [(self.best_comparator.best_id, self.best_comparator.best_similarity_raw)]
                if self.best_comparator.best_similarity_raw >= 0
                else []
            )
        return HardwareRetrievalResult(
            type_id=requested_type,
            best_id=self.best_comparator.best_id,
            best_similarity_raw=max(self.best_comparator.best_similarity_raw, 0),
            ranked=ranked,
            statistics=stats,
            clock_mhz=config.clock_mhz,
            fraction_format=self.fraction_format,
            trace=trace if config.trace else None,
        )

    # -- FSM phases ----------------------------------------------------------------

    def _search_function_type(
        self, requested_type: int, stats: HardwareStatistics, trace: FsmTrace
    ) -> int:
        """Walk the level-0 list until the requested type is found."""
        cursor = 0
        while True:
            type_id = self._read_cb(cursor, stats)
            self._charge(stats, trace, RetrievalState.SEARCH_FUNCTION_TYPE, 1, f"probe type={type_id}")
            if type_id == END_OF_LIST:
                self._charge(stats, trace, RetrievalState.ERROR, 1, "type not found")
                raise UnknownFunctionTypeError(requested_type)
            if type_id == requested_type:
                pointer = self._read_cb(cursor + 1, stats)
                self._charge(stats, trace, RetrievalState.SEARCH_FUNCTION_TYPE, 1, "load impl ptr")
                return pointer
            cursor += 2

    def _fetch_supplemental(
        self,
        attribute_id: int,
        cursor: int,
        stats: HardwareStatistics,
        trace: FsmTrace,
    ) -> Tuple[int, int]:
        """Resume-search the supplemental list; returns ``(constant, cursor)``.

        The supplemental list is sorted by attribute ID and the request's
        attributes arrive in ascending ID order, so the search resumes from the
        previous position (section 4.1's linear-effort argument).  The constant
        returned is the pre-computed reciprocal ``1/(1+dmax)`` for the
        multiplier datapath, or the divisor ``1 + dmax`` when the divider
        variant is configured (which needs the bounds words instead).
        """
        while True:
            entry_id = self._read_cb(cursor, stats)
            stats.supplemental_probes += 1
            self._charge(stats, trace, RetrievalState.FETCH_SUPPLEMENTAL, 1, f"probe supp={entry_id}")
            if entry_id == END_OF_LIST or entry_id > attribute_id:
                raise HardwareModelError(
                    f"attribute {attribute_id} has no supplemental (bounds) entry"
                )
            if entry_id == attribute_id:
                if self.config.use_divider:
                    lower = self._read_cb(cursor + 1, stats)
                    upper = self._read_cb(cursor + 2, stats)
                    self._charge(stats, trace, RetrievalState.FETCH_SUPPLEMENTAL, 2,
                                 "load bounds for divider")
                    return (upper - lower) + 1, cursor
                reciprocal = self._read_cb(cursor + 3, stats)
                self._charge(stats, trace, RetrievalState.FETCH_SUPPLEMENTAL, 1, "load reciprocal")
                return reciprocal, cursor
            cursor += 4

    def _search_attribute(
        self,
        attribute_id: int,
        cursor: int,
        stats: HardwareStatistics,
        trace: FsmTrace,
    ) -> Tuple[Optional[int], int]:
        """Resume-search an implementation's attribute list for ``attribute_id``.

        Returns ``(value_or_None, new_cursor)``.  Because both the request's
        attributes and the stored attribute lists are pre-sorted by ID the
        search never restarts from the top of the list ("the effort for
        searching becomes linear", section 4.1).
        """
        wide = self.config.wide_attribute_fetch
        while True:
            if wide:
                entry_id, value = self._read_cb_pair(cursor, stats)
                stats.attribute_probes += 1
                self._charge(stats, trace, RetrievalState.SEARCH_ATTRIBUTE, 1,
                             f"probe attr={entry_id} (wide)")
                if entry_id == END_OF_LIST or entry_id > attribute_id:
                    return None, cursor
                if entry_id == attribute_id:
                    return value, cursor + 2
            else:
                entry_id = self._read_cb(cursor, stats)
                stats.attribute_probes += 1
                self._charge(stats, trace, RetrievalState.SEARCH_ATTRIBUTE, 1,
                             f"probe attr={entry_id}")
                if entry_id == END_OF_LIST or entry_id > attribute_id:
                    return None, cursor
                if entry_id == attribute_id:
                    value = self._read_cb(cursor + 1, stats)
                    self._charge(stats, trace, RetrievalState.SEARCH_ATTRIBUTE, 1, "load value")
                    return value, cursor + 2
            cursor += 2

    def _score_implementation(
        self,
        request_ram: RamBlock,
        attribute_list_address: int,
        stats: HardwareStatistics,
        trace: FsmTrace,
        reciprocal_cache: Optional[Dict[int, int]] = None,
    ) -> int:
        """Score one implementation: the inner loop of Fig. 6."""
        config = self.config
        self.accumulator.clear()
        request_cursor = 1  # word 0 holds the type ID
        attribute_cursor = attribute_list_address
        supplemental_cursor = self._supplemental_base
        compute_cycles = 1 if config.pipelined_datapath else 3
        accumulate_cycles = 1 if config.pipelined_datapath else 2

        while True:
            # Fetch the next request attribute block (ID, value, weight).
            if config.wide_attribute_fetch:
                attribute_id, request_value = self._read_req_pair(request_ram, request_cursor, stats)
                if attribute_id == END_OF_LIST:
                    self._charge(stats, trace, RetrievalState.FETCH_REQUEST_ATTRIBUTE, 1, "end of request")
                    break
                weight_raw = self._read_req(request_ram, request_cursor + 2, stats)
                self._charge(stats, trace, RetrievalState.FETCH_REQUEST_ATTRIBUTE, 2,
                             f"req attr={attribute_id} (wide)")
            else:
                attribute_id = self._read_req(request_ram, request_cursor, stats)
                if attribute_id == END_OF_LIST:
                    self._charge(stats, trace, RetrievalState.FETCH_REQUEST_ATTRIBUTE, 1, "end of request")
                    break
                request_value = self._read_req(request_ram, request_cursor + 1, stats)
                weight_raw = self._read_req(request_ram, request_cursor + 2, stats)
                self._charge(stats, trace, RetrievalState.FETCH_REQUEST_ATTRIBUTE, 3,
                             f"req attr={attribute_id}")
            request_cursor += 3

            # Fetch the pre-computed reciprocal (or the divisor for the divider
            # variant) from the supplemental list, or from the cache registers
            # once they are warm.
            if reciprocal_cache is not None and attribute_id in reciprocal_cache:
                reciprocal_raw = reciprocal_cache[attribute_id]
            else:
                reciprocal_raw, supplemental_cursor = self._fetch_supplemental(
                    attribute_id, supplemental_cursor, stats, trace
                )
                if reciprocal_cache is not None:
                    reciprocal_cache[attribute_id] = reciprocal_raw

            # Search the implementation's attribute list.  The paper's design
            # resumes from the current position; the restart variant (negative
            # control of the section 4.1 ablation) starts at the list head.
            search_start = (
                attribute_list_address if config.restart_attribute_search else attribute_cursor
            )
            case_value, attribute_cursor = self._search_attribute(
                attribute_id, search_start, stats, trace
            )

            if case_value is None:
                # Missing attribute: local similarity is 0, nothing to accumulate.
                stats.missing_attributes += 1
                self._charge(stats, trace, RetrievalState.COMPUTE_LOCAL_SIMILARITY, 1,
                             "missing attribute, s_i = 0")
                continue

            # Datapath: |a-b| * recip (or / (1+dmax)), 1 - x, * w, accumulate  (Fig. 7).
            difference = self._components["absolute_difference"].compute(request_value, case_value)  # type: ignore[attr-defined]
            if config.use_divider:
                penalty = self._components["divider"].divide_fraction(difference, reciprocal_raw)  # type: ignore[attr-defined]
                divide_cycles = compute_cycles - 1 + HardwareConfig.DIVIDER_CYCLES
                local_similarity = self._components["one_minus"].one_minus(penalty)  # type: ignore[attr-defined]
                self._charge(stats, trace, RetrievalState.COMPUTE_LOCAL_SIMILARITY, divide_cycles,
                             f"s_i raw={local_similarity} (divider)")
            else:
                penalty = self._components["reciprocal_multiplier"].multiply_fraction(difference, reciprocal_raw)  # type: ignore[attr-defined]
                local_similarity = self._components["one_minus"].one_minus(penalty)  # type: ignore[attr-defined]
                self._charge(stats, trace, RetrievalState.COMPUTE_LOCAL_SIMILARITY, compute_cycles,
                             f"s_i raw={local_similarity}")
            contribution = self._components["weight_multiplier"].multiply_fractions(local_similarity, weight_raw)  # type: ignore[attr-defined]
            self.accumulator.accumulate(contribution)
            self._charge(stats, trace, RetrievalState.ACCUMULATE, accumulate_cycles,
                         f"S raw={self.accumulator.value}")

        return self.accumulator.value
