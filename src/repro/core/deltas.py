"""Structured case-base mutation log (the delta-propagation substrate).

The paper defers "dynamic update mechanisms of Case-Base data structures ...
enabling for a self-learning system" to future work; :mod:`repro.core.learning`
models that revise/retain cycle, but until this module every accelerated
consumer kept a private cache keyed to
:attr:`~repro.core.case_base.CaseBase.revision` and rebuilt from scratch on
*any* change -- O(case base) per retained case.  Today the consumers are the
case base's one columnar image (:mod:`repro.core.columnar`, patched once per
window for the vectorized backend and both vectorized cycle engines) and
its one encoded CB-MEM image (:class:`~repro.memmap.image.DeltaTrackedImage`,
read by both retrieval units).

This module gives mutations structure so consumers can react proportionally:

* :class:`CaseBaseDelta` -- one typed mutation record (add/remove/replace of a
  function type or implementation variant, or a bounds-table swap), carrying
  the affected objects so consumers never re-diff the tree;
* :class:`DeltaLog` -- the bounded per-case-base log.  :meth:`DeltaLog.since`
  returns the deltas between two revisions, or ``None`` when the window was
  truncated (the subscriber then falls back to a full rebuild);
* :class:`DeltaSummary` -- the compacted per-revision-window view: net
  per-implementation events with type-level churn folded away, which is what
  the incremental cache updates consume;
* :func:`deltas_preserve_derived_bounds` -- the conservative check that a
  delta window provably leaves a *derived* bounds table unchanged (consumers
  whose output depends on the effective bounds fall back to a full rebuild
  when it fails, keeping incremental application bit-identical with a
  from-scratch build).

:class:`~repro.core.caching.RevisionTrackedCache` ties the pieces together
into the shared subscriber protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .attributes import BoundsTable
    from .case_base import FunctionType, Implementation


class DeltaKind(enum.Enum):
    """The structural mutation classes a :class:`CaseBase` can undergo."""

    ADD_TYPE = "add_type"
    REMOVE_TYPE = "remove_type"
    ADD_IMPLEMENTATION = "add_implementation"
    REMOVE_IMPLEMENTATION = "remove_implementation"
    REPLACE_IMPLEMENTATION = "replace_implementation"
    BOUNDS_CHANGED = "bounds_changed"


@dataclass(frozen=True)
class CaseBaseDelta:
    """One structural mutation, stamped with the revision it produced.

    ``implementation`` carries the post-mutation object (add/replace),
    ``previous`` the pre-mutation object (remove/replace), and
    ``function_type`` the affected type object for type-level mutations
    (which may carry implementations: ``add_type`` accepts populated
    :class:`~repro.core.case_base.FunctionType` objects, and ``remove_type``
    drops the whole subtree).  The payloads are references, not copies --
    exactly what the mutators saw -- so logging is O(1).
    """

    revision: int
    kind: DeltaKind
    type_id: int = 0
    implementation_id: int = 0
    implementation: Optional["Implementation"] = None
    previous: Optional["Implementation"] = None
    function_type: Optional["FunctionType"] = None


@dataclass(frozen=True)
class NetImplementationEvent:
    """Net effect of one delta window on a single implementation variant."""

    ADDED = "added"
    REMOVED = "removed"
    REPLACED = "replaced"

    kind: str
    type_id: int
    implementation_id: int
    #: The current implementation object (``None`` for removals).
    implementation: Optional["Implementation"] = None


class DeltaSummary:
    """Compacted view of one delta window (the subscriber-facing shape).

    ``reset_types`` holds function types that saw type-level churn
    (``add_type``/``remove_type``) inside the window -- consumers handle
    those wholesale (drop-and-rebuild the per-type state from the live case
    base).  ``impl_events`` maps the remaining touched types to their net
    per-implementation events, with add/remove ping-pong folded away (an
    implementation added and removed inside the window produces no event).
    """

    def __init__(self, deltas: Sequence[CaseBaseDelta]) -> None:
        self.deltas: Tuple[CaseBaseDelta, ...] = tuple(deltas)
        self.bounds_changed = False
        reset: set = set()
        events: Dict[int, Dict[int, NetImplementationEvent]] = {}
        for delta in self.deltas:
            if delta.kind is DeltaKind.BOUNDS_CHANGED:
                self.bounds_changed = True
                continue
            if delta.kind in (DeltaKind.ADD_TYPE, DeltaKind.REMOVE_TYPE):
                reset.add(delta.type_id)
                events.pop(delta.type_id, None)
                continue
            if delta.type_id in reset:
                # Type-level churn already forces a per-type rebuild; finer
                # events inside the same window add no information.
                continue
            per_type = events.setdefault(delta.type_id, {})
            per_type[delta.implementation_id] = self._fold(
                per_type.get(delta.implementation_id), delta
            )
            if per_type[delta.implementation_id] is None:
                del per_type[delta.implementation_id]
                if not per_type:
                    del events[delta.type_id]
        self.reset_types: FrozenSet[int] = frozenset(reset)
        self.impl_events: Dict[int, Dict[int, NetImplementationEvent]] = events

    @staticmethod
    def _fold(
        prior: Optional[NetImplementationEvent], delta: CaseBaseDelta
    ) -> Optional[NetImplementationEvent]:
        """Fold one more delta into the net event of an implementation."""
        added = NetImplementationEvent.ADDED
        removed = NetImplementationEvent.REMOVED
        replaced = NetImplementationEvent.REPLACED

        def event(kind: str) -> NetImplementationEvent:
            return NetImplementationEvent(
                kind=kind,
                type_id=delta.type_id,
                implementation_id=delta.implementation_id,
                implementation=(delta.implementation if kind != removed else None),
            )

        if delta.kind is DeltaKind.ADD_IMPLEMENTATION:
            # remove + re-add inside one window nets out to a replacement.
            return event(replaced if prior is not None and prior.kind == removed else added)
        if delta.kind is DeltaKind.REMOVE_IMPLEMENTATION:
            if prior is not None and prior.kind == added:
                return None  # added and removed inside the window: no net effect
            return event(removed)
        # REPLACE_IMPLEMENTATION: an add followed by replacements stays an add.
        if prior is not None and prior.kind == added:
            return event(added)
        return event(replaced)

    @property
    def touched_types(self) -> FrozenSet[int]:
        """Every function type whose membership or contents changed."""
        return self.reset_types | frozenset(self.impl_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaSummary(deltas={len(self.deltas)}, "
            f"touched_types={sorted(self.touched_types)}, "
            f"bounds_changed={self.bounds_changed})"
        )


class DeltaLog:
    """Bounded, compactable mutation log attached to one :class:`CaseBase`.

    The log keeps at most ``capacity`` records; older records are truncated
    and :meth:`since` reports the truncation by returning ``None`` so the
    subscriber falls back to a full rebuild.  Revisions are strictly
    increasing, so the log is always sorted by revision.
    """

    DEFAULT_CAPACITY = 512

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"delta-log capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._deltas: List[CaseBaseDelta] = []
        #: The oldest revision :meth:`since` can still serve as a base.
        self._base_revision = 0
        #: Memoised ``(from_revision, to_revision, summary)`` -- all consumers
        #: of one case base typically ask for the same window, so the fold
        #: runs once per revision step instead of once per subscriber.
        self._summary_cache: Optional[Tuple[int, int, "DeltaSummary"]] = None
        #: Synchronous observers invoked with every recorded delta.  Unlike
        #: :meth:`since` polling, a tap sees every delta exactly once even
        #: when the bounded window truncates between polls -- the durability
        #: journal relies on that to never lose a mutation.
        self._taps: List[Callable[[CaseBaseDelta], None]] = []

    def __len__(self) -> int:
        return len(self._deltas)

    @property
    def base_revision(self) -> int:
        """Oldest revision from which the retained window can still replay."""
        return self._base_revision

    def record(self, delta: CaseBaseDelta) -> None:
        """Append one delta, truncating the window beyond the capacity."""
        self._deltas.append(delta)
        if len(self._deltas) > self.capacity:
            overflow = len(self._deltas) - self.capacity
            self._base_revision = self._deltas[overflow - 1].revision
            del self._deltas[:overflow]
        for tap in self._taps:
            tap(delta)

    def attach_tap(self, tap: Callable[[CaseBaseDelta], None]) -> None:
        """Register a synchronous observer called once per recorded delta.

        Taps are delivery guarantees, not views: they fire before the
        caller's mutation returns and are unaffected by window truncation.
        Taps are deliberately *not* carried over by ``CaseBase.copy()``
        (which builds a fresh log), so snapshots never journal twice.
        """
        self._taps.append(tap)

    def detach_tap(self, tap: Callable[[CaseBaseDelta], None]) -> None:
        """Remove a previously attached tap (no-op when absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def since(self, revision: int) -> Optional[Tuple[CaseBaseDelta, ...]]:
        """The deltas applied after ``revision``, or ``None`` when truncated."""
        if revision < self._base_revision:
            return None
        collected: List[CaseBaseDelta] = []
        for delta in reversed(self._deltas):
            if delta.revision <= revision:
                break
            collected.append(delta)
        collected.reverse()
        return tuple(collected)

    def summary_since(self, revision: int) -> Optional[DeltaSummary]:
        """Compacted :class:`DeltaSummary` for the window after ``revision``."""
        last = self._deltas[-1].revision if self._deltas else self._base_revision
        cached = self._summary_cache
        if cached is not None and cached[0] == revision and cached[1] == last:
            return cached[2]
        deltas = self.since(revision)
        if deltas is None:
            return None
        summary = DeltaSummary(deltas)
        self._summary_cache = (revision, last, summary)
        return summary

    def rebase(self, revision: int) -> None:
        """Drop everything and restart the window at ``revision``.

        Used by :meth:`CaseBase.copy` so the snapshot starts with an
        independent (empty) window anchored at the copied revision: mutations
        of either tree after the copy can never leak into the other's log.
        """
        self._deltas.clear()
        self._base_revision = revision
        self._summary_cache = None


def _implementation_values(implementation: "Implementation"):
    """The ``(attribute_id, value)`` pairs of one implementation."""
    return implementation.attributes.items()


def deltas_preserve_derived_bounds(
    deltas: Sequence[CaseBaseDelta], bounds: "BoundsTable"
) -> bool:
    """Whether a delta window provably leaves *derived* bounds unchanged.

    A case base without an explicit bounds table derives one from its
    contents (min/max per attribute), so structural mutations can shift the
    effective ``1/(1+dmax)`` constants of the similarity measure.  This check
    is conservative: additions must stay inside the known ranges, and
    removals must not take away a range endpoint (the removed value might
    have been its unique witness).  Any doubt returns ``False`` and the
    consumer performs the same full rebuild it always did.
    """
    added: List["Implementation"] = []
    removed: List["Implementation"] = []
    for delta in deltas:
        if delta.kind is DeltaKind.BOUNDS_CHANGED:
            return False
        if delta.kind is DeltaKind.ADD_IMPLEMENTATION:
            added.append(delta.implementation)
        elif delta.kind is DeltaKind.REMOVE_IMPLEMENTATION:
            removed.append(delta.previous)
        elif delta.kind is DeltaKind.REPLACE_IMPLEMENTATION:
            added.append(delta.implementation)
            removed.append(delta.previous)
        elif delta.kind in (DeltaKind.ADD_TYPE, DeltaKind.REMOVE_TYPE):
            members = (
                list(delta.function_type.implementations.values())
                if delta.function_type is not None
                else []
            )
            if delta.kind is DeltaKind.ADD_TYPE:
                added.extend(members)
            else:
                removed.extend(members)
    for implementation in added:
        if implementation is None:
            return False
        for attribute_id, value in _implementation_values(implementation):
            if attribute_id not in bounds:
                return False  # a new attribute would grow the derived table
            bound = bounds.get(attribute_id)
            if not bound.lower <= value <= bound.upper:
                return False
    for implementation in removed:
        if implementation is None:
            return False
        for attribute_id, value in _implementation_values(implementation):
            if attribute_id not in bounds:
                return False
            bound = bounds.get(attribute_id)
            if value == bound.lower or value == bound.upper:
                return False  # might have been the unique range witness
    return True
