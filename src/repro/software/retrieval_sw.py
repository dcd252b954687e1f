"""Software retrieval on the soft-core cost model (paper section 4.2).

:class:`SoftwareRetrievalUnit` executes the *same* most-similar retrieval
algorithm as the hardware unit, on the *same* encoded memory image, but
charges the cycle costs a MicroBlaze-like soft core would spend on the
compiled C code.  The arithmetic is the identical 16-bit fixed-point
computation, so hardware, software and the floating-point reference agree on
the retrieved implementation (the paper: "proved to produce identical
retrieval and similarity results").

The model distinguishes two code-generation styles:

* ``inline_helpers=False`` (default) -- the C code is structured into helper
  functions (supplemental lookup, attribute search, local similarity), as the
  ~2 kB code footprint the paper reports suggests; every helper call pays the
  MicroBlaze call/prologue/epilogue cost.
* ``inline_helpers=True`` -- an aggressively inlined build; used as an
  ablation in experiment E4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..core.case_base import CaseBase
from ..core.exceptions import SoftwareModelError, UnknownFunctionTypeError
from ..core.request import FunctionRequest
from ..fixedpoint.qformat import QFormat, UQ0_16
from ..memmap.image import DeltaTrackedImage, RequestPlan
from ..memmap.words import END_OF_LIST
from .isa import CostModel, InstructionCounters, InstructionEmitter, microblaze_cost_model

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..cosim.engine import CycleEngine


@dataclass
class SoftwareStatistics:
    """Cycle/instruction counters of one software retrieval run."""

    cycles: int = 0
    instructions: int = 0
    memory_reads: int = 0
    implementations_visited: int = 0
    helper_calls: int = 0
    missing_attributes: int = 0


@dataclass
class SoftwareRetrievalResult:
    """Outcome of one software retrieval run."""

    type_id: int
    best_id: int
    best_similarity_raw: int
    statistics: SoftwareStatistics
    cost_model: CostModel
    counters: InstructionCounters
    fraction_format: QFormat = UQ0_16

    @property
    def best_similarity(self) -> float:
        """Best global similarity as a float (quantised)."""
        return self.fraction_format.to_float(self.best_similarity_raw)

    @property
    def cycles(self) -> int:
        """Total executed cycles."""
        return self.statistics.cycles

    @property
    def time_us(self) -> float:
        """Wall-clock retrieval latency in microseconds at the model's clock."""
        return self.statistics.cycles / self.cost_model.clock_mhz


class SoftwareRetrievalUnit:
    """Most-similar retrieval compiled onto the soft-core cost model.

    The program walks the case base's one
    :attr:`~repro.core.case_base.CaseBase.encoded_image` -- the same CB-MEM
    words the hardware unit reads -- as a flat word array; the unit keeps
    only its cost model and code-generation style.

    Parameters
    ----------
    case_base:
        The case base; it is encoded into the same word image the hardware uses.
    cost_model:
        Per-instruction-class cycle costs (defaults to the MicroBlaze model).
    inline_helpers:
        Model an inlined build instead of the default helper-function build.

    Raises :class:`~repro.core.exceptions.EncodingError` when the case base
    cannot be encoded (past 16-bit word addressing).
    """

    def __init__(
        self,
        case_base: CaseBase,
        *,
        cost_model: Optional[CostModel] = None,
        inline_helpers: bool = False,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else microblaze_cost_model()
        self.inline_helpers = inline_helpers
        self.case_base = case_base
        self.fraction_format = case_base.encoded_image.fraction_format
        #: The shared CB-MEM words and supplemental base of the current run.
        self._memory: List[int] = []
        self._supplemental_base = 0

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

    # -- memory helper ------------------------------------------------------------

    def _load(self, emit: InstructionEmitter, stats: SoftwareStatistics, words: List[int], address: int) -> int:
        """One C-level array/pointer dereference: an lw plus address arithmetic."""
        if address >= len(words):
            raise SoftwareModelError(f"software model read past end of memory at {address}")
        emit.load()
        stats.memory_reads += 1
        return words[address]

    def _call(self, emit: InstructionEmitter, stats: SoftwareStatistics) -> None:
        if not self.inline_helpers:
            emit.call()
            stats.helper_calls += 1

    def _ret(self, emit: InstructionEmitter) -> None:
        if not self.inline_helpers:
            emit.ret()

    # -- main entry point ----------------------------------------------------------

    def run(self, request: FunctionRequest) -> SoftwareRetrievalResult:
        """Execute one software retrieval run for the given request (stepwise)."""
        return self.run_on_words(list(self.encoded_request_words(request)))

    def run_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        engine: Union[str, "CycleEngine", None] = "auto",
    ) -> List[SoftwareRetrievalResult]:
        """Execute one software retrieval run per request through a cycle engine.

        Same contract as :meth:`HardwareRetrievalUnit.run_batch
        <repro.hardware.retrieval_unit.HardwareRetrievalUnit.run_batch>`:
        ``"stepwise"`` interprets the program per request, ``"vectorized"``
        derives bit-identical results, instruction counters and cycle counts
        analytically, ``"auto"`` (default) picks the vectorized path.
        """
        from ..cosim.engine import resolve_cycle_engine

        selected = resolve_cycle_engine(engine, prefer_vectorized=True)
        return selected.software_batch(self, list(requests))

    def predict_cycles(
        self,
        requests: Sequence[FunctionRequest],
        *,
        engine: Union[str, "CycleEngine", None] = "auto",
        plans: Optional[Sequence[RequestPlan]] = None,
    ) -> List[int]:
        """Exact execution cycle count per request, without full results.

        The QoS-prediction companion of :meth:`run_batch`, mirroring
        :meth:`HardwareRetrievalUnit.predict_cycles
        <repro.hardware.retrieval_unit.HardwareRetrievalUnit.predict_cycles>`:
        identical counts to ``[r.cycles for r in run_batch(requests)]`` on
        every engine, skipping result assembly on the vectorized path.
        ``plans`` are the requests' plans on the shared image, when the
        caller already looked them up.
        """
        from ..cosim.engine import resolve_cycle_engine

        selected = resolve_cycle_engine(engine, prefer_vectorized=True)
        return selected.software_cycles(self, list(requests), plans)

    def run_on_words(self, request_words: List[int]) -> SoftwareRetrievalResult:
        """Execute one run on an already encoded request word image."""
        counters = InstructionCounters()
        emit = InstructionEmitter(counters)
        stats = SoftwareStatistics()
        image = self.case_base.encoded_image
        self._memory = memory = image.words
        self._supplemental_base = image.supplemental_base

        # main() entry: argument setup, pointer initialisation.
        emit.immediate(4)
        emit.alu(4)
        self._call(emit, stats)

        requested_type = self._load(emit, stats, request_words, 0)

        # Search the level-0 type list.
        cursor = 0
        implementation_list = None
        while True:
            type_id = self._load(emit, stats, memory, cursor)
            emit.compare_and_branch(taken=type_id != requested_type and type_id != END_OF_LIST)
            if type_id == END_OF_LIST:
                emit.compare_and_branch(taken=True)
                self._ret(emit)
                raise UnknownFunctionTypeError(requested_type)
            if type_id == requested_type:
                implementation_list = self._load(emit, stats, memory, cursor + 1)
                break
            emit.alu()  # pointer advance
            cursor += 2

        best_similarity = -1
        best_id = 0
        emit.immediate(2)  # best initialisation

        implementation_cursor = implementation_list
        while True:
            implementation_id = self._load(emit, stats, memory, implementation_cursor)
            emit.compare_and_branch(taken=implementation_id == END_OF_LIST)
            if implementation_id == END_OF_LIST:
                break
            attribute_list = self._load(emit, stats, memory, implementation_cursor + 1)
            emit.alu(2)  # pointer advance, loop variable update
            stats.implementations_visited += 1

            similarity = self._score_implementation(emit, stats, request_words, attribute_list)

            emit.compare_and_branch(taken=similarity > best_similarity)
            if similarity > best_similarity:
                best_similarity = similarity
                best_id = implementation_id
                emit.alu(2)  # register moves for best S and best ID
            emit.branch(taken=True)  # loop back
            implementation_cursor += 2

        self._ret(emit)
        stats.instructions = counters.total_instructions()
        stats.cycles = counters.total_cycles(self.cost_model)
        return SoftwareRetrievalResult(
            type_id=requested_type,
            best_id=best_id,
            best_similarity_raw=max(best_similarity, 0),
            statistics=stats,
            cost_model=self.cost_model,
            counters=counters,
            fraction_format=self.fraction_format,
        )

    # -- inner loops ---------------------------------------------------------------

    def _score_implementation(
        self,
        emit: InstructionEmitter,
        stats: SoftwareStatistics,
        request_words: List[int],
        attribute_list: int,
    ) -> int:
        """Score one implementation: mirrors score_implementation() in the C code."""
        memory = self._memory
        fraction_max = self.fraction_format.max_raw
        self._call(emit, stats)
        emit.immediate(3)  # S = 0, pointer initialisation
        accumulator = 0
        request_cursor = 1
        attribute_cursor = attribute_list
        supplemental_cursor = self._supplemental_base

        while True:
            attribute_id = self._load(emit, stats, request_words, request_cursor)
            emit.compare_and_branch(taken=attribute_id == END_OF_LIST)
            if attribute_id == END_OF_LIST:
                break
            request_value = self._load(emit, stats, request_words, request_cursor + 1)
            weight_raw = self._load(emit, stats, request_words, request_cursor + 2)
            emit.alu(3)  # pointer advances
            request_cursor += 3

            reciprocal, supplemental_cursor = self._fetch_supplemental(
                emit, stats, attribute_id, supplemental_cursor
            )
            case_value, attribute_cursor = self._search_attribute(
                emit, stats, attribute_id, attribute_cursor
            )

            if case_value is None:
                stats.missing_attributes += 1
                emit.alu(1)  # s_i = 0
                emit.branch(taken=True)
                continue

            # local similarity: d = |a - b|; penalty = d * recip; s = 1 - penalty
            self._call(emit, stats)
            difference = request_value - case_value
            emit.alu(1)
            emit.compare_and_branch(taken=difference < 0)
            if difference < 0:
                difference = -difference
                emit.alu(1)
            penalty = difference * reciprocal
            emit.multiply(1)
            emit.compare_and_branch(taken=penalty > fraction_max)
            if penalty > fraction_max:
                penalty = fraction_max
                emit.immediate(1)
            local_similarity = fraction_max - penalty
            emit.alu(1)
            self._ret(emit)

            # contribution = (s * w) >> 16; S += contribution (saturating)
            contribution = (local_similarity * weight_raw) >> self.fraction_format.fraction_bits
            emit.multiply(1)
            emit.shift(1)
            accumulator = accumulator + contribution
            emit.alu(1)
            emit.compare_and_branch(taken=accumulator > fraction_max)
            if accumulator > fraction_max:
                accumulator = fraction_max
                emit.immediate(1)
            emit.branch(taken=True)  # attribute loop back

        self._ret(emit)
        return accumulator

    def _fetch_supplemental(
        self,
        emit: InstructionEmitter,
        stats: SoftwareStatistics,
        attribute_id: int,
        cursor: int,
    ) -> Tuple[int, int]:
        """Resume-search the supplemental list for the attribute's reciprocal."""
        memory = self._memory
        self._call(emit, stats)
        while True:
            entry_id = self._load(emit, stats, memory, cursor)
            emit.compare_and_branch(taken=entry_id != attribute_id)
            if entry_id == END_OF_LIST or entry_id > attribute_id:
                self._ret(emit)
                raise SoftwareModelError(
                    f"attribute {attribute_id} has no supplemental (bounds) entry"
                )
            if entry_id == attribute_id:
                reciprocal = self._load(emit, stats, memory, cursor + 3)
                self._ret(emit)
                return reciprocal, cursor
            emit.alu(1)  # pointer advance by one block
            emit.branch(taken=True)
            cursor += 4

    def _search_attribute(
        self,
        emit: InstructionEmitter,
        stats: SoftwareStatistics,
        attribute_id: int,
        cursor: int,
    ) -> Tuple[Optional[int], int]:
        """Resume-search the implementation's attribute list."""
        memory = self._memory
        self._call(emit, stats)
        while True:
            entry_id = self._load(emit, stats, memory, cursor)
            emit.compare_and_branch(taken=entry_id == END_OF_LIST or entry_id > attribute_id)
            if entry_id == END_OF_LIST or entry_id > attribute_id:
                self._ret(emit)
                return None, cursor
            emit.compare_and_branch(taken=entry_id == attribute_id)
            if entry_id == attribute_id:
                value = self._load(emit, stats, memory, cursor + 1)
                emit.alu(1)  # pointer advance
                self._ret(emit)
                return value, cursor + 2
            emit.alu(1)  # pointer advance
            emit.branch(taken=True)
            cursor += 2
