"""Shared revision-tracked caching with incremental delta application.

Before this module, three layers (the vectorized retrieval backend, and the
cosim columnar image plus encoded memory images of the hardware/software
units) each hand-rolled the same pattern::

    self._revision = -1
    ...
    if self._revision != case_base.revision:
        <rebuild everything from scratch>
        self._revision = case_base.revision

:class:`RevisionTrackedCache` centralises that pattern and upgrades it: when
the case base's :class:`~repro.core.deltas.DeltaLog` still covers the window
between the cache's last-seen revision and the current one, the consumer's
``apply`` hook receives a compacted :class:`~repro.core.deltas.DeltaSummary`
and patches its derived state in place -- O(touched types) instead of
O(case base).  The full rebuild remains the fallback for truncated logs,
bounds instability, or any delta the consumer declines to absorb, so
incremental application is always bit-identical with a from-scratch build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .case_base import CaseBase
    from .deltas import DeltaSummary


class RevisionTrackedCache:
    """One consumer's subscription to a case base's mutation stream.

    Parameters
    ----------
    case_base:
        The case base whose revision counter and delta log drive the cache.
    rebuild:
        Zero-argument callback rebuilding the consumer's derived state from
        scratch (the pre-delta behaviour).
    apply:
        Optional callback receiving a :class:`DeltaSummary` and returning
        ``True`` when the consumer absorbed the window incrementally, or
        ``False`` to request the full rebuild instead.  Without it the cache
        degrades to the plain revision-keyed rebuild pattern.

    The ``rebuild_count`` / ``incremental_count`` counters expose which path
    served each refresh -- tests and benchmarks assert on them so the fast
    path can never silently regress into rebuilding.
    """

    def __init__(
        self,
        case_base: "CaseBase",
        *,
        rebuild: Callable[[], None],
        apply: Optional[Callable[["DeltaSummary"], bool]] = None,
    ) -> None:
        self.case_base = case_base
        self._rebuild = rebuild
        self._apply = apply
        self._revision: Optional[int] = None
        self.rebuild_count = 0
        self.incremental_count = 0

    @property
    def revision(self) -> Optional[int]:
        """Last case-base revision the consumer's state reflects."""
        return self._revision

    @property
    def current(self) -> bool:
        """Whether the consumer's state already reflects the live revision."""
        return self._revision == self.case_base.revision

    def invalidate(self) -> None:
        """Force the next :meth:`ensure_current` onto the full-rebuild path."""
        self._revision = None

    def mark_current(self) -> None:
        """Adopt the live revision without rebuilding.

        For consumers that build their initial state eagerly in their own
        constructor (the retrieval units) rather than on first use.
        """
        self._revision = self.case_base.revision

    def ensure_current(self) -> None:
        """Bring the consumer's derived state up to the live revision."""
        revision = self.case_base.revision
        if revision == self._revision:
            return
        applied = False
        if self._revision is not None and self._apply is not None:
            summary = self.case_base.delta_log.summary_since(self._revision)
            if summary is not None:
                applied = bool(self._apply(summary))
        if applied:
            self.incremental_count += 1
        else:
            self._rebuild()
            self.rebuild_count += 1
        self._revision = revision
