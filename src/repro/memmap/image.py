"""Complete memory images for the hardware retrieval unit.

The retrieval unit of Fig. 7 talks to two memories: the case-base memory
(``CB-MEM``) holding the implementation tree and the attribute-supplemental
list, and the request memory (``Req-MEM``) holding the encoded request.
:class:`CaseBaseImage` builds both images from high-level objects and reports
their footprints (Table 3); :func:`build_memories` instantiates the
:class:`~repro.memmap.ram.RamBlock` objects the cycle-accurate model reads.
:class:`DeltaTrackedImage` is a case base's one encoded CB-MEM image
(:attr:`CaseBase.encoded_image <repro.core.case_base.CaseBase.encoded_image>`),
read by both the hardware and the software retrieval unit and kept current
across delta windows.  Besides the words it holds what the vectorized cycle
engines need beyond the case base's shared type tables -- level-0
positions and the supplemental list's arrays -- and one
:class:`RequestPlan` per exact request: the encoded Req-MEM words, the
serving screen's verdict, the exact cycles per model configuration and
the vectorized retrieval's rankings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.attributes import BoundsTable
from ..core.caching import RevisionTrackedCache
from ..core.case_base import CaseBase
from ..core.deltas import DeltaSummary, deltas_preserve_derived_bounds
from ..core.request import FunctionRequest
from ..fixedpoint.qformat import QFormat, UQ0_16
from .compact import EncodedCompactTree, encode_compact_tree
from .implementation_tree import (
    EncodedImplementationTree,
    SegmentedTreeEncoder,
    encode_tree,
)
from .ram import BramBank, RamBlock
from .request_list import EncodedRequest, encode_request
from .supplemental_list import (
    SUPPLEMENTAL_BLOCK_WORDS,
    EncodedSupplementalList,
    encode_supplemental,
)
from .words import END_OF_LIST

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.retrieval import RetrievalResult

#: Request plans kept per case-base image (least recently used evicted first).
PLAN_CAPACITY = 1024

#: :attr:`RequestPlan.verdict` before the serving screen has judged the request.
UNSCREENED = object()


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte footprints of all encoded structures (the Table 3 quantities)."""

    tree_bytes: int
    supplemental_bytes: int
    request_bytes: int
    compact_tree_bytes: int

    @property
    def case_base_bytes(self) -> int:
        """Case-base memory footprint: implementation tree + supplemental list."""
        return self.tree_bytes + self.supplemental_bytes

    @property
    def compact_case_base_bytes(self) -> int:
        """Case-base footprint with the compact (shared-directory) tree encoding."""
        return self.compact_tree_bytes + self.supplemental_bytes

    @property
    def total_bytes(self) -> int:
        """Total footprint of case base plus request."""
        return self.case_base_bytes + self.request_bytes

    def bram_blocks(self) -> int:
        """Number of 18-kbit block RAMs needed for case base + request."""
        return (
            BramBank(self.case_base_bytes).block_count
            + BramBank(self.request_bytes).block_count
        )


@dataclass
class RequestPlan:
    """Everything derived from one exact request against the current image."""

    #: The request's Req-MEM image.
    encoded: EncodedRequest
    #: The serving screen's verdict: ``None`` when the request can be
    #: dispatched, else the reason it cannot; :data:`UNSCREENED` until the
    #: screen has run.
    verdict: object = UNSCREENED
    #: Exact retrieval cycles per model configuration key.
    cycles: Dict[Hashable, int] = field(default_factory=dict)
    #: The vectorized retrieval's result per ``(n, threshold, bounds
    #: table)``; the serving engine fills and reads it, and every request
    #: with this plan's signature shares the stored object (read-only).
    rankings: Dict[Tuple, "RetrievalResult"] = field(default_factory=dict)


class CaseBaseImage:
    """All memory images needed to run one hardware retrieval.

    Parameters
    ----------
    case_base:
        The case base to encode.
    bounds:
        Optional bounds table; defaults to the case base's own table.
    fraction_format:
        Fixed-point format used for weights and reciprocals (UQ0.16 by default).
    """

    def __init__(
        self,
        case_base: CaseBase,
        bounds: Optional[BoundsTable] = None,
        fraction_format: QFormat = UQ0_16,
        *,
        tree: Optional[EncodedImplementationTree] = None,
        supplemental: Optional[EncodedSupplementalList] = None,
    ) -> None:
        self.case_base = case_base
        self.bounds = bounds if bounds is not None else case_base.bounds
        self.fraction_format = fraction_format
        #: ``tree``/``supplemental`` may be supplied pre-encoded --
        #: :class:`DeltaTrackedImage` patches only touched types via
        #: :class:`~repro.memmap.implementation_tree.SegmentedTreeEncoder`
        #: and re-wraps the result here instead of re-encoding everything.
        self.tree: EncodedImplementationTree = (
            tree if tree is not None else encode_tree(case_base)
        )
        self.supplemental: EncodedSupplementalList = (
            supplemental
            if supplemental is not None
            else encode_supplemental(self.bounds, fraction_format)
        )
        self._compact_tree: Optional[EncodedCompactTree] = None

    @property
    def compact_tree(self) -> EncodedCompactTree:
        """The compact (shared-directory) tree encoding, built on first use.

        Lazy because only the footprint comparison (Table 3) and the compact
        design variants read it -- eager encoding would double the cost of
        every image rebuild on the serving path.  The encode runs against the
        *live* case base at first access: on an image held across later
        case-base mutations (the documented snapshot-before-mutating caveat
        applies) it would reflect the newer revision, unlike the ``tree`` /
        ``supplemental`` fields frozen at construction.
        """
        if self._compact_tree is None:
            self._compact_tree = encode_compact_tree(self.case_base)
        return self._compact_tree

    def encode_request(self, request: FunctionRequest) -> EncodedRequest:
        """Encode one request against this image's fraction format."""
        return encode_request(request, self.fraction_format)

    def footprint(self, request: Optional[FunctionRequest] = None) -> MemoryFootprint:
        """Byte footprints; the request defaults to the worst case of Table 3.

        Without an explicit request the request footprint is computed for the
        10-attribute worst case the paper states (64 bytes).
        """
        if request is not None:
            request_bytes = self.encode_request(request).size_bytes
        else:
            from .request_list import request_size_bytes

            request_bytes = request_size_bytes(10)
        return MemoryFootprint(
            tree_bytes=self.tree.size_bytes,
            supplemental_bytes=self.supplemental.size_bytes,
            request_bytes=request_bytes,
            compact_tree_bytes=self.compact_tree.size_bytes,
        )

    def build_case_base_ram(self, name: str = "CB-MEM") -> Tuple[RamBlock, int]:
        """Build the case-base RAM: implementation tree followed by supplemental list.

        Returns the RAM block and the word address at which the supplemental
        list starts (the tree always starts at address 0).
        """
        words = list(self.tree.words) + list(self.supplemental.words)
        ram = RamBlock.from_words(words, name=name)
        return ram, self.tree.size_words

    def build_request_ram(
        self, request: FunctionRequest, name: str = "Req-MEM"
    ) -> Tuple[RamBlock, EncodedRequest]:
        """Build the request RAM for one encoded request (see
        :meth:`EncodedRequest.build_ram <repro.memmap.request_list.EncodedRequest.build_ram>`)."""
        encoded = self.encode_request(request)
        return encoded.build_ram(name), encoded


class DeltaTrackedImage:
    """The case base's one encoded CB-MEM image, kept current across delta windows.

    Reached through :attr:`CaseBase.encoded_image
    <repro.core.case_base.CaseBase.encoded_image>`; the hardware and
    software retrieval units of a case base both read it.  It owns the
    segmented tree encoder and the current :class:`CaseBaseImage`, the
    combined CB-MEM word list of the stepwise walks (built on first read
    after each change), each type's level-0 ``position``, the supplemental
    list's IDs, reciprocals, ``1 + dmax`` divisors and index, and the
    request plans (:attr:`plans`).  The per-type attribute tables come from
    the case base's shared columnar image (:attr:`tables`).

    One :class:`~repro.core.caching.RevisionTrackedCache` subscription
    (:attr:`tracker`) keeps it current, and one rule keeps the plans
    current with it: a delta window drops the plans of every type it
    touches or whose level-0 position it shifts (a type added or removed
    before it); a full rebuild -- which any bounds change forces -- drops
    them all.
    """

    def __init__(self, case_base: CaseBase) -> None:
        self.case_base = case_base
        self._segments = SegmentedTreeEncoder()
        #: The case base's shared per-type attribute tables.
        self.tables = case_base.type_tables
        #: ``exact request signature -> plan``, bounded to
        #: :data:`PLAN_CAPACITY` (least recently used evicted first).
        self.plans: "OrderedDict[Tuple, RequestPlan]" = OrderedDict()
        self._rebuild()
        self.tracker = RevisionTrackedCache(case_base, rebuild=self._rebuild, apply=self._apply)
        self.tracker.mark_current()

    def _rebuild(self) -> None:
        """Full encode of the words, positions and supplemental arrays."""
        self.image = CaseBaseImage(
            self.case_base, tree=self._segments.encode_full(self.case_base)
        )
        self._words: Optional[List[int]] = None
        self.positions = self._segments.positions()
        ids: List[int] = []
        reciprocals: List[int] = []
        divisors: List[int] = []
        words = self.image.supplemental.words
        index = 0
        while words[index] != END_OF_LIST:
            ids.append(words[index])
            divisors.append((words[index + 2] - words[index + 1]) + 1)
            reciprocals.append(words[index + 3])
            index += SUPPLEMENTAL_BLOCK_WORDS
        #: Supplemental attribute IDs in (ascending) list order, shape ``(S,)``.
        self.supplemental_ids = np.array(ids, dtype=np.int64)
        #: Raw UQ0.16 reciprocals ``1/(1+dmax)`` parallel to the IDs.
        self.supplemental_reciprocals = np.array(reciprocals, dtype=np.int64)
        #: ``1 + dmax`` divisors for the iterative-divider design alternative.
        self.supplemental_divisors = np.array(divisors, dtype=np.int64)
        #: Attribute ID -> position in the supplemental list.
        self.supplemental_index: Dict[int, int] = {
            attribute_id: position for position, attribute_id in enumerate(ids)
        }
        self.plans.clear()

    @property
    def fraction_format(self) -> QFormat:
        """Fixed-point format of the weights, reciprocals and similarities."""
        return self.image.fraction_format

    @property
    def words(self) -> List[int]:
        """The combined CB-MEM word list (tree then supplemental list).

        Built on the first read after each change and shared by every
        reader; treat it as read-only.
        """
        if self._words is None:
            self._words = list(self.image.tree.words) + list(self.image.supplemental.words)
        return self._words

    @property
    def word_count(self) -> int:
        """Word count of the CB-MEM image (tree plus supplemental list)."""
        return len(self.image.tree.words) + len(self.image.supplemental.words)

    @property
    def supplemental_base(self) -> int:
        """Word address at which the supplemental list starts."""
        return self.image.tree.size_words

    def plan(self, request: FunctionRequest) -> RequestPlan:
        """The request's plan, encoded on first sight.

        Encoding errors propagate and leave no plan behind.
        """
        key = request.signature()
        plans = self.plans
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = RequestPlan(self.image.encode_request(request))
            if len(plans) > PLAN_CAPACITY:
                plans.popitem(last=False)
        else:
            plans.move_to_end(key)
        return plan

    def _bounds_stable(self, summary: DeltaSummary) -> bool:
        """Whether the image's supplemental list provably stays unchanged."""
        if summary.bounds_changed:
            return False
        if self.case_base.has_explicit_bounds:
            return True
        return deltas_preserve_derived_bounds(summary.deltas, self.image.bounds)

    def _apply(self, summary: DeltaSummary) -> bool:
        """Patch the image (and drop the stale plans) for one delta window.

        ``False`` requests the full rebuild instead (empty case base --
        preserving the usual empty-encode error -- or unstable effective
        bounds).
        """
        if len(self.case_base) == 0:
            return False
        if not self._bounds_stable(summary):
            return False
        tree = self._segments.encode_update(self.case_base, summary)
        self.image = CaseBaseImage(
            self.case_base,
            bounds=self.image.bounds,
            fraction_format=self.image.fraction_format,
            tree=tree,
            supplemental=self.image.supplemental,
        )
        self._words = None
        previous, self.positions = self.positions, self._segments.positions()
        stale = set(summary.touched_types)
        stale.update(
            type_id
            for type_id, position in self.positions.items()
            if previous.get(type_id) != position
        )
        for key in [key for key in self.plans if key[0] in stale]:
            del self.plans[key]  # key[0]: the request's type ID
        return True


def build_memories(
    case_base: CaseBase,
    request: FunctionRequest,
    bounds: Optional[BoundsTable] = None,
    fraction_format: QFormat = UQ0_16,
) -> Tuple[RamBlock, int, RamBlock, CaseBaseImage]:
    """Convenience helper building both memories for one retrieval run.

    Returns ``(case_base_ram, supplemental_base_address, request_ram, image)``.
    """
    image = CaseBaseImage(case_base, bounds=bounds, fraction_format=fraction_format)
    case_base_ram, supplemental_base = image.build_case_base_ram()
    request_ram, _ = image.build_request_ram(request)
    return case_base_ram, supplemental_base, request_ram, image
