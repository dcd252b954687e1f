"""The case base's one columnar image: a dense attribute table per function type.

Both fast paths read the case base column-wise: the vectorized retrieval
backend (similarities, bounds pre-filter) and the vectorized cycle engine
(structural counts, fixed-point similarities).  :class:`TypeTables` holds
that form once per :class:`~repro.core.case_base.CaseBase` object, reached
through :attr:`CaseBase.type_tables
<repro.core.case_base.CaseBase.type_tables>`:

* per function type a :class:`TypeTable`, built from the live
  implementations on first use;
* one :class:`~repro.core.caching.RevisionTrackedCache` subscription that
  patches the built tables once per delta window (untouched types keep
  their tables, and with them their reciprocal vectors and pre-filter
  block summaries);
* an :meth:`TypeTables.invalidate` that also invalidates the case base's
  encoded CB-MEM image, so no consumer ever pairs a rebuilt table with
  stale CB-MEM words.

Values are held as ``float64``.  The CB-MEM encoding accepts only integral
16-bit values (:func:`~repro.memmap.words.encode_value`), so wherever the
cycle models can run at all the float plane equals the encoded words
exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .caching import RevisionTrackedCache
from .deltas import DeltaSummary, NetImplementationEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .attributes import BoundsTable
    from .case_base import CaseBase, Implementation

#: ID of the all-absent sentinel column: greater than any 16-bit attribute
#: ID, so it sorts last and never matches a request attribute.
PAD_ID = 1 << 17

#: Left padding of a type's shorter requests, one ``(ID, value, weight)``
#: block per missing slot, for retrieval and pricing alike: the ID is below
#: every attribute ID, so it reads the all-absent sentinel column and
#: insertion index 0, where no entry lies below -- a padded slot is never
#: present, adds an exact ``+0.0`` to a similarity and drops out of every
#: count.
PAD_BLOCK = (-1, 0, 0)


class TypeTable:
    """Dense attribute table of one function type: ``U`` IDs, ``I`` variants.

    Column ``k < U`` belongs to the type's ``k``-th smallest attribute ID;
    column ``U`` is an all-absent sentinel.  A request attribute ``a`` reads
    the column of its ID, or the sentinel when no implementation holds it;
    either way its insertion index ``k = searchsorted(attribute_ids, a)``
    indexes ``below``, which is ``sum_i f_i(a)`` (entries with an ID below
    ``a``).  Rows of the implementation axis ascend by implementation ID --
    the level-1 list order of the CB-MEM tree.

    Memory: ``9 * I * (U + 1)`` bytes for ``present`` and ``values`` plus
    ``32 * (U + 1)`` for the vectors (the reciprocals included).
    """

    __slots__ = (
        "type_id",
        "implementations",
        "impl_ids",
        "attribute_ids",
        "present",
        "values",
        "holders",
        "below",
        "factors",
        "block_stats",
    )

    #: Implementations per pre-filter block: the bounds screen summarises
    #: (and prunes) the table in runs of this many consecutive rows.
    BLOCK_ROWS = 1024

    def __init__(
        self,
        type_id: int,
        implementations: List["Implementation"],
        impl_ids: np.ndarray,
        attribute_ids: np.ndarray,
        present: np.ndarray,
        values: np.ndarray,
        holders: Optional[np.ndarray] = None,
        below: Optional[np.ndarray] = None,
    ) -> None:
        self.type_id = type_id
        #: The variants in row order (result objects reference them).
        self.implementations = implementations
        #: Implementation IDs in row (= ascending) order, shape ``(I,)``.
        self.impl_ids = impl_ids
        #: Ascending attribute IDs, then ``PAD_ID``, shape ``(U + 1,)``.
        self.attribute_ids = attribute_ids
        #: Attribute held by implementation, shape ``(U + 1, I)``.
        self.present = present
        #: Stored value, 0 where absent, shape ``(U + 1, I)``.
        self.values = values
        if holders is None:
            self._count()
        else:
            #: Implementations holding the column's ID, shape ``(U + 1,)``.
            self.holders = holders
            #: Entries with an ID below the column's, over all
            #: implementations: the exclusive prefix sum of ``holders``.
            self.below = below
        self._dropped()

    @classmethod
    def build(
        cls, type_id: int, implementations: List["Implementation"]
    ) -> "TypeTable":
        """Encode one type's variants (``implementations`` ascending by ID)."""
        ids = sorted({a for implementation in implementations for a in implementation.attributes})
        column_of = {attribute_id: column for column, attribute_id in enumerate(ids)}
        attribute_ids = np.array(ids + [PAD_ID], dtype=np.int64)
        shape = (len(attribute_ids), len(implementations))
        present = np.zeros(shape, dtype=bool)
        values = np.zeros(shape, dtype=np.float64)
        for row, implementation in enumerate(implementations):
            for attribute_id, value in implementation.attributes.items():
                column = column_of[attribute_id]
                present[column, row] = True
                values[column, row] = float(value)
        impl_ids = np.array(
            [implementation.implementation_id for implementation in implementations],
            dtype=np.int64,
        )
        return cls(type_id, list(implementations), impl_ids, attribute_ids, present, values)

    def _count(self) -> None:
        self.holders = self.present.sum(axis=1)
        self.below = np.zeros_like(self.holders)
        np.cumsum(self.holders[:-1], out=self.below[1:])

    def _dropped(self) -> None:
        """Drop the content-derived caches (after any content change)."""
        #: ``(bounds table, reciprocal per column, held IDs it lacks)`` (lazy).
        self.factors: Optional[Tuple] = None
        #: Per-block column summaries of the bounds pre-filter (lazy).
        self.block_stats: Optional[Tuple] = None

    @property
    def implementation_count(self) -> int:
        """Number of implementation variants of this type."""
        return len(self.implementations)

    def locate(self, attribute_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(insertion, column)`` per attribute ID.

        ``insertion`` is the ID's insertion index into :attr:`attribute_ids`
        (it indexes :attr:`below`); ``column`` is the ID's own column, or the
        sentinel when no implementation holds it.
        """
        ids = np.asarray(attribute_ids, dtype=np.int64)
        insertion = self.attribute_ids.searchsorted(ids)
        column = np.where(
            self.attribute_ids[insertion] == ids, insertion, len(self.attribute_ids) - 1
        )
        return insertion, column

    def reciprocals(self, bounds: "BoundsTable") -> Tuple[np.ndarray, FrozenSet[int]]:
        """``1 / (1 + dmax)`` per column under ``bounds``, shape ``(U + 1,)``.

        The sentinel column and every held ID without a ``bounds`` entry read
        0; those IDs are returned as the second element, so a caller can
        raise the missing-bounds error where the scalar path would.
        """
        if self.factors is None or self.factors[0] is not bounds:
            factors = np.zeros(len(self.attribute_ids), dtype=np.float64)
            gaps = set()
            for column, attribute_id in enumerate(self.attribute_ids[:-1].tolist()):
                if attribute_id in bounds:
                    factors[column] = bounds.get(attribute_id).reciprocal
                else:
                    gaps.add(attribute_id)
            self.factors = (bounds, factors, frozenset(gaps))
        return self.factors[1], self.factors[2]

    def block_summaries(self) -> Tuple:
        """Per-block per-column summaries backing the bounds pre-filter.

        Returns ``(starts, block_min, block_max, any_present, any_absent)``:
        block ``b`` covers rows ``starts[b] .. starts[b] + BLOCK_ROWS`` and
        the ``(U + 1, B)`` arrays give, per column and block, the min/max
        over *present* cells (``+inf``/``-inf`` when none are) and whether
        the block holds any present / any absent cell in that column.
        """
        if self.block_stats is None:
            column_count, row_count = self.values.shape
            starts = np.arange(0, max(row_count, 1), self.BLOCK_ROWS, dtype=np.intp)
            if row_count == 0:
                shape = (column_count, len(starts))
                self.block_stats = (
                    starts,
                    np.zeros(shape, dtype=np.float64),
                    np.zeros(shape, dtype=np.float64),
                    np.zeros(shape, dtype=bool),
                    np.zeros(shape, dtype=bool),
                )
            else:
                block_min = np.minimum.reduceat(
                    np.where(self.present, self.values, np.inf), starts, axis=1
                )
                block_max = np.maximum.reduceat(
                    np.where(self.present, self.values, -np.inf), starts, axis=1
                )
                present_counts = np.add.reduceat(
                    self.present.astype(np.int64), starts, axis=1
                )
                lengths = np.diff(np.append(starts, row_count))
                self.block_stats = (
                    starts,
                    block_min,
                    block_max,
                    present_counts > 0,
                    present_counts < lengths,
                )
        return self.block_stats

    # -- delta application ---------------------------------------------------------

    def apply_events(self, events) -> bool:
        """Absorb one window's net events; ``False`` asks for a rebuild.

        Rows are removed, rewritten or inserted in ID order; a brand-new
        attribute ID inserts its column and a column no implementation
        holds any more is dropped, so the patched table equals a fresh
        :meth:`build` of the same variants.
        """
        for event in events:
            index = int(self.impl_ids.searchsorted(event.implementation_id))
            exists = (
                index < len(self.impl_ids) and self.impl_ids[index] == event.implementation_id
            )
            if event.kind == NetImplementationEvent.REMOVED:
                if not exists:
                    return False
                del self.implementations[index]
                self.impl_ids = np.delete(self.impl_ids, index)
                self.present = np.delete(self.present, index, axis=1)
                self.values = np.delete(self.values, index, axis=1)
                continue
            implementation = event.implementation
            if implementation is None or exists != (
                event.kind == NetImplementationEvent.REPLACED
            ):
                return False
            ids = np.array(sorted(implementation.attributes), dtype=np.int64)
            fresh = ids[~np.isin(ids, self.attribute_ids)]
            if len(fresh):
                at = self.attribute_ids.searchsorted(fresh)
                self.attribute_ids = np.insert(self.attribute_ids, at, fresh)
                self.present = np.insert(self.present, at, False, axis=0)
                self.values = np.insert(self.values, at, 0.0, axis=0)
            row_present = np.zeros(len(self.attribute_ids), dtype=bool)
            row_values = np.zeros(len(self.attribute_ids), dtype=np.float64)
            columns = self.attribute_ids.searchsorted(ids)
            row_present[columns] = True
            row_values[columns] = [float(implementation.attributes[a]) for a in ids.tolist()]
            if exists:
                self.implementations[index] = implementation
                self.present[:, index] = row_present
                self.values[:, index] = row_values
            else:
                self.implementations.insert(index, implementation)
                self.impl_ids = np.insert(self.impl_ids, index, event.implementation_id)
                self.present = np.insert(self.present, index, row_present, axis=1)
                self.values = np.insert(self.values, index, row_values, axis=1)
        held = self.present[:-1].any(axis=1)
        if not held.all():
            keep = np.append(held, True)
            self.attribute_ids = self.attribute_ids[keep]
            self.present = self.present[keep]
            self.values = self.values[keep]
        self._count()
        self._dropped()
        return True


class TypeTables:
    """The one columnar image of a case base: its :class:`TypeTable` per type.

    Types are built lazily on first use and only built types are patched;
    a truncated delta window (or :meth:`invalidate`) drops them all.
    """

    def __init__(self, case_base: "CaseBase") -> None:
        self.case_base = case_base
        self.types: Dict[int, TypeTable] = {}
        self.tracker = RevisionTrackedCache(case_base, rebuild=self._rebuild, apply=self._apply)
        self.tracker.mark_current()

    def table(self, type_id: int, *, current: bool = False) -> TypeTable:
        """One type's current table; ``current=True`` when the caller already
        brought the image up to the live revision."""
        if not current:
            self.tracker.ensure_current()
        table = self.types.get(type_id)
        if table is None:
            function_type = self.case_base.get_type(type_id)
            table = TypeTable.build(type_id, function_type.sorted_implementations())
            self.types[type_id] = table
        return table

    def invalidate(self) -> None:
        """Rebuild this image and the encoded CB-MEM image from the live case base.

        Needed only after implementation objects were edited in place (which
        bypasses the revision counter); any consumer's ``invalidate`` lands
        here, so all consumers of the case base stay consistent.
        """
        self.tracker.invalidate()
        encoded = self.case_base._encoded_image
        if encoded is not None:
            encoded.tracker.invalidate()

    def seed(self, tables: Dict[int, TypeTable]) -> None:
        """Install pre-built tables of the live revision (the image-store path)."""
        self.types = dict(tables)
        self.tracker.mark_current()

    def _rebuild(self) -> None:
        self.types = {}

    def _apply(self, summary: DeltaSummary) -> bool:
        for type_id in summary.reset_types:
            self.types.pop(type_id, None)
        for type_id, events in summary.impl_events.items():
            table = self.types.get(type_id)
            if table is not None and not table.apply_events(events.values()):
                del self.types[type_id]
        return True
