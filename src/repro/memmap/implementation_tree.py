"""Encoding of the implementation tree / case base (paper Fig. 5).

The tree is a hierarchy of three list levels, all "generated at design time
creating one big block of linear concatenated lists":

* **Level 0** -- the function-type list: ``[type ID, pointer]`` blocks, one per
  basic function type, terminated by the NULL word.  The pointer is the word
  address of the type's implementation list.
* **Level 1** -- one implementation list per type: ``[implementation ID,
  pointer]`` blocks terminated by NULL; the pointer addresses the
  implementation's attribute list.
* **Level 2** -- one attribute list per implementation: ``[attribute ID,
  value]`` pairs, pre-sorted by attribute ID, terminated by NULL.

All entries are 16-bit words; pointers are absolute word addresses inside the
case-base memory.  Because level 0 starts at address 0, a pointer can never
legitimately be 0, so the NULL word doubles as an "invalid pointer" marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.case_base import CaseBase, ExecutionTarget, Implementation
from ..core.exceptions import EncodingError
from .words import END_OF_LIST, WORD_BYTES, check_id, check_word, encode_value

#: Words per level-0 block (type ID, pointer).
TYPE_BLOCK_WORDS = 2
#: Words per level-1 block (implementation ID, pointer).
IMPLEMENTATION_BLOCK_WORDS = 2
#: Words per level-2 block (attribute ID, value).
ATTRIBUTE_BLOCK_WORDS = 2


@dataclass(frozen=True)
class TreeAddressMap:
    """Word addresses of the encoded sub-lists (useful for tests and traces)."""

    type_list: int
    implementation_lists: Dict[int, int]
    attribute_lists: Dict[Tuple[int, int], int]


class EncodedImplementationTree:
    """Encoded implementation tree plus its address map and statistics.

    The address map is only read by tests, traces and tooling, so it may be
    supplied as a factory materialised on first access -- the delta-aware
    :class:`SegmentedTreeEncoder` produces a fresh tree per mutation window
    and rebuilding the map dictionaries eagerly would dominate its update
    cost.
    """

    __slots__ = (
        "words",
        "type_count",
        "implementation_count",
        "attribute_entry_count",
        "_address_map",
        "_address_map_factory",
    )

    def __init__(
        self,
        words: Tuple[int, ...],
        address_map: Optional[TreeAddressMap] = None,
        type_count: int = 0,
        implementation_count: int = 0,
        attribute_entry_count: int = 0,
        *,
        address_map_factory=None,
    ) -> None:
        if address_map is None and address_map_factory is None:
            raise EncodingError("encoded tree needs an address map or a factory")
        self.words = words
        self.type_count = type_count
        self.implementation_count = implementation_count
        self.attribute_entry_count = attribute_entry_count
        self._address_map = address_map
        self._address_map_factory = address_map_factory

    @property
    def address_map(self) -> TreeAddressMap:
        """Word addresses of the encoded sub-lists (built on first access)."""
        if self._address_map is None:
            self._address_map = self._address_map_factory()
        return self._address_map

    @property
    def size_words(self) -> int:
        """Image size in 16-bit words."""
        return len(self.words)

    @property
    def size_bytes(self) -> int:
        """Image size in bytes (feeds the Table 3 comparison)."""
        return len(self.words) * WORD_BYTES


def encode_tree(case_base: CaseBase) -> EncodedImplementationTree:
    """Encode a :class:`CaseBase` into the three-level Fig.-5 word image.

    The layout is: the level-0 type list first, then for every type its
    level-1 implementation list immediately followed by the level-2 attribute
    lists of its implementations.  Pointers are patched after the layout of
    the lower levels is known.
    """
    types = case_base.sorted_types()
    if not types:
        raise EncodingError("cannot encode an empty case base")

    words: List[int] = []
    # Level 0: reserve the type list, pointers patched later.
    type_pointer_slots: Dict[int, int] = {}
    for function_type in types:
        words.append(check_id(function_type.type_id, "function type ID"))
        type_pointer_slots[function_type.type_id] = len(words)
        words.append(0)  # placeholder pointer
    words.append(END_OF_LIST)

    implementation_lists: Dict[int, int] = {}
    attribute_lists: Dict[Tuple[int, int], int] = {}
    implementation_count = 0
    attribute_entry_count = 0

    for function_type in types:
        implementations = function_type.sorted_implementations()
        # Level 1 list for this type.
        implementation_list_address = len(words)
        implementation_lists[function_type.type_id] = implementation_list_address
        words[type_pointer_slots[function_type.type_id]] = check_word(
            implementation_list_address, "implementation-list pointer"
        )
        implementation_pointer_slots: Dict[int, int] = {}
        for implementation in implementations:
            words.append(check_id(implementation.implementation_id, "implementation ID"))
            implementation_pointer_slots[implementation.implementation_id] = len(words)
            words.append(0)  # placeholder pointer
        words.append(END_OF_LIST)
        # Level 2 attribute lists of this type's implementations.
        for implementation in implementations:
            attribute_list_address = len(words)
            attribute_lists[(function_type.type_id, implementation.implementation_id)] = (
                attribute_list_address
            )
            words[implementation_pointer_slots[implementation.implementation_id]] = check_word(
                attribute_list_address, "attribute-list pointer"
            )
            for attribute_id, value in implementation.sorted_attributes():
                words.append(check_id(attribute_id, "attribute ID"))
                words.append(encode_value(value))
                attribute_entry_count += 1
            words.append(END_OF_LIST)
            implementation_count += 1

    return EncodedImplementationTree(
        words=tuple(words),
        address_map=TreeAddressMap(
            type_list=0,
            implementation_lists=implementation_lists,
            attribute_lists=attribute_lists,
        ),
        type_count=len(types),
        implementation_count=implementation_count,
        attribute_entry_count=attribute_entry_count,
    )


@dataclass(frozen=True)
class _TypeSegment:
    """One function type's encoded level-1 + level-2 block, base-relative.

    ``words`` holds the implementation list followed by its attribute lists
    with *segment-relative* attribute-list pointers; ``pointer_slots`` are the
    word indices that must be rebased (``+= segment base``) when the segment
    is placed into the assembled image.
    """

    words: Tuple[int, ...]
    pointer_slots: Tuple[int, ...]
    attribute_lists: Dict[int, int]
    implementation_count: int
    attribute_entry_count: int


def _encode_attribute_list(implementation) -> Tuple[int, ...]:
    """One implementation's level-2 attribute-list words (with terminator)."""
    words: List[int] = []
    for attribute_id, value in implementation.sorted_attributes():
        words.append(check_id(attribute_id, "attribute ID"))
        words.append(encode_value(value))
    words.append(END_OF_LIST)
    return tuple(words)


def _append_to_segment(
    segment: _TypeSegment, implementation_id: int, attribute_list: Tuple[int, ...]
) -> _TypeSegment:
    """Tail-append one implementation block without re-concatenating the rest.

    Valid only when ``implementation_id`` sorts after every existing block
    (the retain step's ``max + 1`` allocation): the new level-1 block slots
    in just before the list terminator (shifting every attribute list by the
    two inserted words) and the new attribute list lands at the segment end.
    """
    insert_at = IMPLEMENTATION_BLOCK_WORDS * segment.implementation_count
    words = list(segment.words)
    for slot in segment.pointer_slots:
        words[slot] += IMPLEMENTATION_BLOCK_WORDS
    new_attribute_address = len(words) + IMPLEMENTATION_BLOCK_WORDS
    words[insert_at:insert_at] = [
        check_id(implementation_id, "implementation ID"),
        new_attribute_address,
    ]
    words.extend(attribute_list)
    attribute_lists = {
        existing_id: address + IMPLEMENTATION_BLOCK_WORDS
        for existing_id, address in segment.attribute_lists.items()
    }
    attribute_lists[implementation_id] = new_attribute_address
    return _TypeSegment(
        words=tuple(words),
        pointer_slots=segment.pointer_slots + (insert_at + 1,),
        attribute_lists=attribute_lists,
        implementation_count=segment.implementation_count + 1,
        attribute_entry_count=segment.attribute_entry_count
        + (len(attribute_list) - 1) // 2,
    )


def _rewrite_in_segment(
    segment: _TypeSegment,
    implementation_id: int,
    old_attribute_list: Tuple[int, ...],
    attribute_list: Tuple[int, ...],
) -> Optional[_TypeSegment]:
    """Rewrite one same-length attribute list in place (the revise step).

    Returns ``None`` when the lengths differ -- addresses would shift, so
    the caller rebuilds the segment instead.
    """
    if len(attribute_list) != len(old_attribute_list):
        return None
    address = segment.attribute_lists[implementation_id]
    words = list(segment.words)
    words[address : address + len(attribute_list)] = attribute_list
    return _TypeSegment(
        words=tuple(words),
        pointer_slots=segment.pointer_slots,
        attribute_lists=segment.attribute_lists,
        implementation_count=segment.implementation_count,
        attribute_entry_count=segment.attribute_entry_count,
    )


def _build_segment(attribute_words: Dict[int, Tuple[int, ...]]) -> _TypeSegment:
    """Assemble one type's segment from its per-implementation word lists."""
    implementation_ids = sorted(attribute_words)
    words: List[int] = []
    pointer_slots: List[int] = []
    for implementation_id in implementation_ids:
        words.append(check_id(implementation_id, "implementation ID"))
        pointer_slots.append(len(words))
        words.append(0)  # placeholder pointer
    words.append(END_OF_LIST)
    attribute_lists: Dict[int, int] = {}
    attribute_entry_count = 0
    for slot, implementation_id in zip(pointer_slots, implementation_ids):
        attribute_list = attribute_words[implementation_id]
        attribute_lists[implementation_id] = words[slot] = len(words)
        words.extend(attribute_list)
        attribute_entry_count += (len(attribute_list) - 1) // 2
    return _TypeSegment(
        words=tuple(words),
        pointer_slots=tuple(pointer_slots),
        attribute_lists=attribute_lists,
        implementation_count=len(implementation_ids),
        attribute_entry_count=attribute_entry_count,
    )


class SegmentedTreeEncoder:
    """Delta-aware tree encoder: per-type segments cached across revisions.

    :func:`encode_tree` re-quantises and re-lays-out every attribute of every
    implementation on each call -- O(case base) per mutation.  This encoder
    caches each implementation's encoded attribute-list words and each
    function type's base-relative segment: one retained case re-encodes one
    attribute list, rebuilds one segment from cached word tuples, and
    assembly reduces to C-speed list extends plus a handful of pointer
    rebases -- while staying word-for-word identical with
    :func:`encode_tree` on the same case base.
    """

    def __init__(self) -> None:
        #: type_id -> implementation_id -> encoded attribute-list words.
        self._attribute_words: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._segments: Dict[int, _TypeSegment] = {}
        #: Assembled-image state for the splice fast path: the working word
        #: buffer plus each type's base address and segment length, in
        #: level-0 order.
        self._assembled: Optional[List[int]] = None
        self._order: List[int] = []
        self._bases: Dict[int, int] = {}
        self._lengths: Dict[int, int] = {}

    def _encode_type(self, function_type) -> _TypeSegment:
        attribute_words = {
            implementation.implementation_id: _encode_attribute_list(implementation)
            for implementation in function_type.implementations.values()
        }
        self._attribute_words[function_type.type_id] = attribute_words
        segment = _build_segment(attribute_words)
        self._segments[function_type.type_id] = segment
        return segment

    def encode_full(self, case_base: CaseBase) -> EncodedImplementationTree:
        """Re-encode every type from scratch (the full-rebuild path)."""
        self._attribute_words.clear()
        self._segments.clear()
        for function_type in case_base.sorted_types():
            self._encode_type(function_type)
        return self._assemble(case_base)

    def encode_update(
        self, case_base: CaseBase, summary
    ) -> EncodedImplementationTree:
        """Re-encode only what a delta window touched, then reassemble.

        ``summary`` is the window's :class:`~repro.core.deltas.DeltaSummary`:
        reset types re-encode wholesale; per-implementation events re-encode
        exactly one attribute list each (or drop it) before the touched
        type's segment is rebuilt from the cached word tuples.  When the
        type membership is unchanged, the touched segments are spliced into
        the previously assembled word buffer instead of re-concatenating
        every segment.
        """
        for type_id in summary.reset_types:
            if type_id in case_base:
                self._encode_type(case_base.get_type(type_id))
            else:
                self._attribute_words.pop(type_id, None)
                self._segments.pop(type_id, None)
        changed: List[int] = []
        for type_id, events in summary.impl_events.items():
            attribute_words = self._attribute_words.get(type_id)
            if attribute_words is None:
                if type_id in case_base:
                    self._encode_type(case_base.get_type(type_id))
                continue
            segment: Optional[_TypeSegment] = self._segments.get(type_id)
            for event in events.values():
                if event.implementation is None:  # removed
                    attribute_words.pop(event.implementation_id, None)
                    segment = None  # addresses shift: rebuild below
                    continue
                encoded = _encode_attribute_list(event.implementation)
                previous_encoded = attribute_words.get(event.implementation_id)
                attribute_words[event.implementation_id] = encoded
                if segment is None:
                    continue
                if previous_encoded is None:
                    segment = (
                        _append_to_segment(segment, event.implementation_id, encoded)
                        if event.implementation_id == max(attribute_words)
                        else None  # mid-list insertion: rebuild below
                    )
                else:
                    segment = _rewrite_in_segment(
                        segment, event.implementation_id, previous_encoded, encoded
                    )
            if segment is None:
                segment = _build_segment(attribute_words)
            self._segments[type_id] = segment
            changed.append(type_id)
        if (
            self._assembled is not None
            and not summary.reset_types
            and self._order == sorted(self._segments)
        ):
            return self._assemble_splice(changed)
        return self._assemble(case_base)

    def _assemble_splice(self, changed: List[int]) -> EncodedImplementationTree:
        """Splice re-encoded segments into the assembled buffer in place.

        Changed types are processed in buffer (ascending-base) order, so a
        shift only ever affects followers.  A follower that is itself still
        pending holds its *old* words in the buffer -- its internal pointer
        slots must not be rebased here (the new segment's slot indices may
        not even fall inside the old region); its own splice writes fully
        rebased content against the already-updated base.
        """
        words = self._assembled
        pending = set(changed)
        for type_id in sorted(changed, key=self._bases.__getitem__):
            pending.discard(type_id)
            base = self._bases[type_id]
            segment = self._segments[type_id]
            rebased = list(segment.words)
            for slot in segment.pointer_slots:
                rebased[slot] += base
            old_length = self._lengths[type_id]
            words[base : base + old_length] = rebased
            self._lengths[type_id] = len(rebased)
            shift = len(rebased) - old_length
            if shift:
                follow = False
                for position, other_id in enumerate(self._order):
                    if other_id == type_id:
                        follow = True
                        continue
                    if not follow:
                        continue
                    words[TYPE_BLOCK_WORDS * position + 1] += shift
                    new_base = self._bases[other_id] + shift
                    self._bases[other_id] = new_base
                    if other_id in pending:
                        continue  # old content; rebased wholesale by its splice
                    for slot in self._segments[other_id].pointer_slots:
                        words[new_base + slot] += shift
        check_word(len(words) - 1, "implementation-tree image address")
        return self._tree_from_state(tuple(words))

    @staticmethod
    def _address_map_from(
        order: Tuple[int, ...],
        bases: Dict[int, int],
        segments: Dict[int, _TypeSegment],
    ) -> TreeAddressMap:
        """Materialise the address map from an immutable state snapshot."""
        implementation_lists: Dict[int, int] = {}
        attribute_lists: Dict[Tuple[int, int], int] = {}
        for type_id in order:
            segment = segments[type_id]
            base = bases[type_id]
            implementation_lists[type_id] = base
            for implementation_id, relative in segment.attribute_lists.items():
                attribute_lists[(type_id, implementation_id)] = base + relative
        return TreeAddressMap(
            type_list=0,
            implementation_lists=implementation_lists,
            attribute_lists=attribute_lists,
        )

    def _tree_from_state(self, words: Tuple[int, ...]) -> EncodedImplementationTree:
        """Build the encoded-tree record from the segment/base state.

        The address map is handed over as a factory closed over a snapshot of
        the (immutable-segment) state -- materialised only when something
        actually reads it.
        """
        implementation_count = 0
        attribute_entry_count = 0
        for type_id in self._order:
            segment = self._segments[type_id]
            implementation_count += segment.implementation_count
            attribute_entry_count += segment.attribute_entry_count
        order = tuple(self._order)
        bases = dict(self._bases)
        segments = dict(self._segments)
        return EncodedImplementationTree(
            words=words,
            address_map_factory=lambda: self._address_map_from(order, bases, segments),
            type_count=len(order),
            implementation_count=implementation_count,
            attribute_entry_count=attribute_entry_count,
        )

    def positions(self) -> Dict[int, int]:
        """Each encoded type's 0-based position in the level-0 list."""
        return {type_id: position for position, type_id in enumerate(self._order)}

    def _assemble(self, case_base: CaseBase) -> EncodedImplementationTree:
        types = case_base.sorted_types()
        if not types:
            raise EncodingError("cannot encode an empty case base")
        words: List[int] = []
        type_pointer_slots: Dict[int, int] = {}
        for function_type in types:
            words.append(check_id(function_type.type_id, "function type ID"))
            type_pointer_slots[function_type.type_id] = len(words)
            words.append(0)  # placeholder pointer
        words.append(END_OF_LIST)
        self._order = [function_type.type_id for function_type in types]
        self._bases = {}
        self._lengths = {}
        for function_type in types:
            segment = self._segments.get(function_type.type_id)
            if segment is None:  # defensive: encode on demand
                segment = self._encode_type(function_type)
            base = len(words)
            self._bases[function_type.type_id] = base
            self._lengths[function_type.type_id] = len(segment.words)
            words[type_pointer_slots[function_type.type_id]] = base
            words.extend(segment.words)
            for slot in segment.pointer_slots:
                words[base + slot] += base
        # Pointers are word addresses bounded by the image length, so one
        # range check replaces :func:`~repro.memmap.words.check_word` per
        # pointer slot (the per-slot Python calls dominated assembly time).
        check_word(len(words) - 1, "implementation-tree image address")
        self._assembled = words
        return self._tree_from_state(tuple(words))


def decode_tree(words: Sequence[int]) -> Dict[int, Dict[int, Dict[int, int]]]:
    """Decode an encoded tree into ``{type_id: {impl_id: {attr_id: value}}}``.

    Execution targets and deployment metadata are not part of the memory image
    (they live in the repository / allocation layer), so the decoded structure
    is a plain nested dictionary rather than a full :class:`CaseBase`.
    """
    if not words:
        raise EncodingError("implementation-tree image is empty")
    result: Dict[int, Dict[int, Dict[int, int]]] = {}
    index = 0
    while True:
        if index >= len(words):
            raise EncodingError("type list is not terminated by an end-of-list word")
        type_id = words[index]
        if type_id == END_OF_LIST:
            break
        if index + 1 >= len(words):
            raise EncodingError("truncated type block in implementation tree")
        pointer = words[index + 1]
        result[type_id] = _decode_implementation_list(words, pointer)
        index += TYPE_BLOCK_WORDS
    return result


def _decode_implementation_list(words: Sequence[int], address: int) -> Dict[int, Dict[int, int]]:
    implementations: Dict[int, Dict[int, int]] = {}
    index = address
    while True:
        if index >= len(words):
            raise EncodingError("implementation list is not terminated")
        implementation_id = words[index]
        if implementation_id == END_OF_LIST:
            break
        if index + 1 >= len(words):
            raise EncodingError("truncated implementation block in implementation tree")
        pointer = words[index + 1]
        implementations[implementation_id] = _decode_attribute_list(words, pointer)
        index += IMPLEMENTATION_BLOCK_WORDS
    return implementations


def _decode_attribute_list(words: Sequence[int], address: int) -> Dict[int, int]:
    attributes: Dict[int, int] = {}
    index = address
    previous_id = 0
    while True:
        if index >= len(words):
            raise EncodingError("attribute list is not terminated")
        attribute_id = words[index]
        if attribute_id == END_OF_LIST:
            break
        if attribute_id <= previous_id:
            raise EncodingError(
                f"attribute IDs are not strictly ascending at word {index}"
            )
        previous_id = attribute_id
        if index + 1 >= len(words):
            raise EncodingError("truncated attribute block in implementation tree")
        attributes[attribute_id] = words[index + 1]
        index += ATTRIBUTE_BLOCK_WORDS
    return attributes


def tree_size_words(
    type_count: int, implementations_per_type: int, attributes_per_implementation: int
) -> int:
    """Analytic size of the encoded tree for a uniformly filled case base.

    Used for the Table 3 sizing sweep: ``15`` types with ``10`` implementations
    of ``10`` attributes each.
    """
    if min(type_count, implementations_per_type, attributes_per_implementation) < 0:
        raise EncodingError("tree dimensions must be non-negative")
    level0 = TYPE_BLOCK_WORDS * type_count + 1
    level1 = type_count * (IMPLEMENTATION_BLOCK_WORDS * implementations_per_type + 1)
    level2 = (
        type_count
        * implementations_per_type
        * (ATTRIBUTE_BLOCK_WORDS * attributes_per_implementation + 1)
    )
    return level0 + level1 + level2


def tree_size_bytes(
    type_count: int, implementations_per_type: int, attributes_per_implementation: int
) -> int:
    """Analytic tree footprint in bytes."""
    return tree_size_words(
        type_count, implementations_per_type, attributes_per_implementation
    ) * WORD_BYTES
