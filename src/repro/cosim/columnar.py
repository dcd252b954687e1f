"""Columnar (NumPy) view of an encoded :class:`~repro.memmap.image.CaseBaseImage`.

The stepwise cycle models re-walk the 16-bit word image one Python-level
memory access at a time.  The vectorized cycle engine instead decodes the
image *once* into per-type columnar arrays:

* the level-1 implementation list order and IDs,
* every implementation's level-2 attribute list as padded ``(I, M)`` ID and
  value matrices (pad entries carry an ID larger than any legal 16-bit word,
  so ascending-order comparisons treat them like the end-of-list terminator),
* per type, a dense attribute table (:class:`TypeTable`): one column per
  attribute ID the type's lists hold, in ascending order, plus an all-absent
  sentinel column, with presence, stored value and the "entries below"
  counts the cycle formulas need -- built on first use from the two
  matrices above,
* the supplemental list's attribute IDs, pre-computed reciprocals and
  ``1 + dmax`` divisors as parallel arrays.

Decoding from the encoded words -- not from the live :class:`CaseBase` --
guarantees the fast path sees exactly the quantised values the stepwise
models read from CB-MEM.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..memmap.image import CaseBaseImage
from ..memmap.implementation_tree import (
    IMPLEMENTATION_BLOCK_WORDS,
    TYPE_BLOCK_WORDS,
)
from ..memmap.supplemental_list import SUPPLEMENTAL_BLOCK_WORDS
from ..memmap.words import END_OF_LIST

#: Padding ID for absent attribute-list slots: compares greater than any
#: 16-bit attribute ID, so it never matches and never counts as ``< a``.
PAD_ID = 1 << 17

#: Exact-cycle memo entries kept per columnar image (least recently used
#: evicted first).
CYCLE_MEMO_CAPACITY = 1024


def _insert_row(array: np.ndarray, index: int, row) -> np.ndarray:
    """Insert one row/element; plain concatenation beats ``np.insert``'s
    axis normalisation overhead on the small arrays of the delta hot path."""
    piece = np.asarray(row, dtype=array.dtype)
    if array.ndim > 1:
        piece = piece[None, ...]
    else:
        piece = piece.reshape(1)
    return np.concatenate([array[:index], piece, array[index:]])


def _delete_row(array: np.ndarray, index: int) -> np.ndarray:
    """Remove one row/element (see :func:`_insert_row`)."""
    return np.concatenate([array[:index], array[index + 1 :]])


@dataclass(frozen=True)
class TypeTable:
    """Dense attribute table of one function type: ``U`` IDs, ``I`` variants.

    Column ``k < U`` belongs to the type's ``k``-th smallest stored attribute
    ID; column ``U`` is an all-absent sentinel.  A request attribute ``a``
    reads the column of its ID, or the sentinel when no list of the type
    holds it; either way its insertion index ``k = searchsorted(
    attribute_ids, a)`` indexes ``below``, which is ``sum_i f_i(a)``.  The
    cycle formulas only need implementation totals of the counts, so those
    are per column; presence and values stay per implementation for the
    similarity kernel.

    Memory: ``3 * I * (U + 1)`` bytes for ``present`` and ``values`` plus
    ``24 * (U + 1)`` for the vectors, with ``U <= I * M`` distinct IDs.
    """

    #: Ascending attribute IDs, then ``PAD_ID`` (sentinel), shape ``(U + 1,)``.
    attribute_ids: np.ndarray
    #: Attribute held by implementation, shape ``(U + 1, I)``.
    present: np.ndarray
    #: Stored 16-bit value, 0 where absent, shape ``(U + 1, I)``.
    values: np.ndarray
    #: Implementations holding the column's ID (0 for the sentinel), ``(U + 1,)``.
    holders: np.ndarray
    #: Entries with an ID below the column's, over all implementations: the
    #: exclusive prefix sum of ``holders``, shape ``(U + 1,)``.
    below: np.ndarray


@dataclass(frozen=True)
class TypeColumns:
    """One function type's implementation variants in columnar form."""

    type_id: int
    #: 0-based position of the type's block in the level-0 list.
    position: int
    #: Implementation IDs in level-1 list (= ascending) order, shape ``(I,)``.
    impl_ids: np.ndarray
    #: Attribute IDs per implementation, shape ``(I, M)``, padded with PAD_ID.
    entry_ids: np.ndarray
    #: Attribute values per implementation, shape ``(I, M)``, 0 where padded.
    entry_values: np.ndarray

    @cached_property
    def implementation_count(self) -> int:
        """Number of implementation variants of this type."""
        return int(self.impl_ids.shape[0])

    @cached_property
    def table(self) -> TypeTable:
        """The type's dense attribute table, built on first use.

        Once per columns object: row patches of a type make a new object,
        and types a delta window leaves alone keep theirs (and its table).
        """
        held = self.entry_ids != PAD_ID
        attribute_ids = np.unique(self.entry_ids[held])
        shape = (attribute_ids.shape[0] + 1, self.implementation_count)
        columns = np.searchsorted(attribute_ids, self.entry_ids)[held]
        rows = np.nonzero(held)[0]
        present = np.zeros(shape, dtype=bool)
        present[columns, rows] = True
        values = np.zeros(shape, dtype=np.uint16)
        values[columns, rows] = self.entry_values[held]
        holders = present.sum(axis=1)
        below = np.zeros_like(holders)
        np.cumsum(holders[:-1], out=below[1:])
        return TypeTable(
            attribute_ids=np.append(attribute_ids, PAD_ID),
            present=present,
            values=values,
            holders=holders,
            below=below,
        )

    def with_rows(
        self, patches: Dict[int, Optional[Tuple[Tuple[int, int], ...]]]
    ) -> Optional["TypeColumns"]:
        """Row-patched copy: ``impl_id -> encoded (ID, value) pairs`` or ``None``.

        ``None`` entries remove the implementation's row; pair tuples rewrite
        or insert it (rows stay in ascending implementation-ID order).  The
        result shares the untouched arrays' data where NumPy allows and keeps
        the existing pad width -- extra ``PAD_ID`` columns compare greater
        than any attribute ID, so they are invisible to the cycle models.
        Returns ``None`` when a patch needs more columns than the current
        width (the caller re-decodes the type from the image instead).
        """
        impl_ids = self.impl_ids
        entry_ids = self.entry_ids
        entry_values = self.entry_values
        copied = False
        for implementation_id, pairs in sorted(patches.items()):
            index = int(np.searchsorted(impl_ids, implementation_id))
            exists = index < len(impl_ids) and impl_ids[index] == implementation_id
            if pairs is None:
                if not exists:
                    return None
                impl_ids = _delete_row(impl_ids, index)
                entry_ids = _delete_row(entry_ids, index)
                entry_values = _delete_row(entry_values, index)
                copied = True
                continue
            width = entry_ids.shape[1]
            if len(pairs) > width:
                return None
            row_ids = np.full(width, PAD_ID, dtype=np.int64)
            row_values = np.zeros(width, dtype=np.int64)
            for column, (attribute_id, value) in enumerate(pairs):
                row_ids[column] = attribute_id
                row_values[column] = value
            if exists:
                if not copied:
                    entry_ids = entry_ids.copy()
                    entry_values = entry_values.copy()
                    copied = True
                entry_ids[index] = row_ids
                entry_values[index] = row_values
            else:
                impl_ids = _insert_row(impl_ids, index, implementation_id)
                entry_ids = _insert_row(entry_ids, index, row_ids)
                entry_values = _insert_row(entry_values, index, row_values)
                copied = True
        return TypeColumns(
            type_id=self.type_id,
            position=self.position,
            impl_ids=impl_ids,
            entry_ids=entry_ids,
            entry_values=entry_values,
        )


class ColumnarImage:
    """All columnar arrays the vectorized cycle engine needs, decoded once.

    Parameters
    ----------
    image:
        The encoded memory image; its ``tree`` and ``supplemental`` word
        tuples are the single source of truth.
    previous:
        Optional prior decode of an earlier revision of the same case base.
        Together with ``touched_types`` (the function types whose encoded
        content changed since ``previous`` was built -- the caller's delta
        summary), decoding reuses every untouched type's arrays and walks
        only the touched types, making the re-decode O(touched) instead of
        O(case base).  Positions shift cheaply when types were added or
        removed; the supplemental arrays are reused whenever the encoded
        supplemental words are unchanged.
    row_patches:
        Finer-grained still: per-type ``{impl_id: encoded attribute pairs or
        None}`` patches (see :meth:`TypeColumns.with_rows`) applied to the
        previous decode instead of re-walking the type's words.  A type whose
        patch cannot be applied in place falls back to the full type decode.
    """

    def __init__(
        self,
        image: CaseBaseImage,
        *,
        previous: Optional["ColumnarImage"] = None,
        touched_types: FrozenSet[int] = frozenset(),
        row_patches: Optional[Dict[int, Dict[int, Optional[Tuple]]]] = None,
    ) -> None:
        self.image = image
        self.fraction_format = image.fraction_format
        self.types: Dict[int, TypeColumns] = {}
        #: The vectorized engine's per-request exact-cycle memo,
        #: ``(model key, encoded request words) -> cycles``, bounded to
        #: :data:`CYCLE_MEMO_CAPACITY`; carried forward below for types whose
        #: arrays were reused unchanged.
        self.cycle_memo: "OrderedDict[Tuple, int]" = OrderedDict()
        self._decode_tree(
            image.tree.words, previous, frozenset(touched_types), row_patches or {}
        )
        supplemental_reused = (
            previous is not None
            and previous.image.supplemental.words == image.supplemental.words
        )
        if supplemental_reused:
            self.supplemental_ids = previous.supplemental_ids
            self.supplemental_reciprocals = previous.supplemental_reciprocals
            self.supplemental_divisors = previous.supplemental_divisors
            self.supplemental_index = previous.supplemental_index
            reused = {
                type_id
                for type_id, columns in self.types.items()
                if previous.types.get(type_id) is columns
            }
            for key, cycles in previous.cycle_memo.items():
                if key[1][0] in reused:  # key[1][0]: the request's type word
                    self.cycle_memo[key] = cycles
        else:
            self._decode_supplemental(image.supplemental.words)

    # -- decoding ------------------------------------------------------------------

    def _decode_tree(
        self,
        words: Tuple[int, ...],
        previous: Optional["ColumnarImage"],
        touched: FrozenSet[int],
        row_patches: Dict[int, Dict[int, Optional[Tuple]]],
    ) -> None:
        if previous is not None and not touched:
            # Pure row-patch window: type membership (and hence the level-0
            # list and every position) is unchanged, so the previous decode
            # carries over wholesale and only the patched types are touched.
            self.types = dict(previous.types)
            for type_id, patches in row_patches.items():
                columns = self.types.get(type_id)
                patched = columns.with_rows(patches) if columns is not None else None
                if patched is None:
                    self.types = {}
                    break  # width growth or drift: fall through to the walk
                self.types[type_id] = patched
            else:
                return
        # Level 0: type list order gives each type's search position.
        type_blocks: List[Tuple[int, int]] = []  # (type_id, impl list address)
        index = 0
        while words[index] != END_OF_LIST:
            type_blocks.append((words[index], words[index + 1]))
            index += TYPE_BLOCK_WORDS
        for position, (type_id, impl_list_address) in enumerate(type_blocks):
            reusable = (
                previous.types.get(type_id)
                if previous is not None and type_id not in touched
                else None
            )
            if reusable is not None:
                patches = row_patches.get(type_id)
                if patches is not None:
                    reusable = reusable.with_rows(patches)
                if reusable is not None:
                    self.types[type_id] = (
                        reusable
                        if reusable.position == position
                        else replace(reusable, position=position)
                    )
                    continue
            self.types[type_id] = self._decode_type(words, type_id, position, impl_list_address)

    @staticmethod
    def _decode_type(
        words: Tuple[int, ...], type_id: int, position: int, impl_list_address: int
    ) -> TypeColumns:
        impl_blocks: List[Tuple[int, int]] = []  # (impl_id, attribute list address)
        index = impl_list_address
        while words[index] != END_OF_LIST:
            impl_blocks.append((words[index], words[index + 1]))
            index += IMPLEMENTATION_BLOCK_WORDS
        attribute_lists: List[List[Tuple[int, int]]] = []
        for _, attribute_address in impl_blocks:
            entries: List[Tuple[int, int]] = []
            index = attribute_address
            while words[index] != END_OF_LIST:
                entries.append((words[index], words[index + 1]))
                index += 2
            attribute_lists.append(entries)
        count = len(impl_blocks)
        width = max((len(entries) for entries in attribute_lists), default=0)
        entry_ids = np.full((count, width), PAD_ID, dtype=np.int64)
        entry_values = np.zeros((count, width), dtype=np.int64)
        for row, entries in enumerate(attribute_lists):
            for column, (attribute_id, value) in enumerate(entries):
                entry_ids[row, column] = attribute_id
                entry_values[row, column] = value
        return TypeColumns(
            type_id=type_id,
            position=position,
            impl_ids=np.array([impl_id for impl_id, _ in impl_blocks], dtype=np.int64),
            entry_ids=entry_ids,
            entry_values=entry_values,
        )

    def _decode_supplemental(self, words: Tuple[int, ...]) -> None:
        ids: List[int] = []
        reciprocals: List[int] = []
        divisors: List[int] = []
        index = 0
        while words[index] != END_OF_LIST:
            attribute_id = words[index]
            lower, upper = words[index + 1], words[index + 2]
            ids.append(attribute_id)
            reciprocals.append(words[index + 3])
            divisors.append((upper - lower) + 1)
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

    # -- lookups -------------------------------------------------------------------

    def type_columns(self, type_id: int) -> TypeColumns:
        """Columnar view of one function type (KeyError when unknown)."""
        return self.types[type_id]
