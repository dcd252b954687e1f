"""Pluggable execution backends for the reference retrieval engine.

The paper's section-4.1 analysis argues that linear-search retrieval is the
hot path of the allocation manager; this module provides interchangeable
execution strategies for that path:

* :class:`NaiveBackend` -- the original pure-Python loop over
  :meth:`RetrievalEngine.score`, one implementation at a time.  It is the
  golden reference: every other backend must reproduce its rankings,
  similarities and :class:`~repro.core.retrieval.RetrievalStatistics`
  bit for bit (error *ordering* in doubly-erroneous batches is the one
  documented exception -- see :meth:`VectorizedBackend.retrieve_batch`).
* :class:`VectorizedBackend` -- a software-vectorization data point for the
  section-4.1 cost argument.  The case base is pre-compiled into per-function
  -type NumPy attribute matrices with the paper's ``1 / (1 + dmax)``
  reciprocals baked in (exactly the supplemental-list trick of the hardware
  unit, Fig. 4 right), and whole *batches* of requests are evaluated as
  matrix operations.

Bit-identical equivalence is achieved by mirroring the scalar arithmetic of
:class:`~repro.core.similarity.LocalSimilarity` and
:class:`~repro.core.amalgamation.WeightedSum` operation for operation: the
local similarity is ``1 - d * (1 / (1 + dmax))`` in both paths (IEEE-754
double ops are correctly rounded, so element-wise NumPy arithmetic matches the
scalar interpreter arithmetic exactly) and the weighted sum accumulates the
attribute columns in ascending attribute-ID order, just like the scalar
``sum()``.

Matrices are cached on the backend behind a shared
:class:`~repro.core.caching.RevisionTrackedCache`: any structural mutation of
the case base (including the revise/retain steps of :mod:`repro.core.learning`,
which go through :meth:`CaseBase.replace_implementation` /
:meth:`CaseBase.add_implementation`) bumps the revision, and the backend
consumes the case base's :class:`~repro.core.deltas.DeltaLog` to patch only
the touched per-type matrices in place (append/remove/rewrite rows); a full
rebuild happens only when the log window was truncated or a delta cannot be
absorbed (e.g. a brand-new attribute column).  Mutating an
:class:`Implementation`'s attribute dict in place bypasses the revision
counter -- the same caveat that applies to the hardware unit's memory images
-- and requires an explicit :meth:`RetrievalBackend.invalidate`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .amalgamation import WeightedSum
from .caching import RevisionTrackedCache
from .case_base import Implementation
from .deltas import DeltaSummary, NetImplementationEvent
from .exceptions import RetrievalError
from .request import FunctionRequest
from .similarity import LocalSimilarity, ManhattanDistance

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .retrieval import (
        RetrievalEngine,
        RetrievalResult,
        RetrievalStatistics,
        ScoredImplementation,
    )


_RESULT_TYPES: Optional[Tuple[type, type, type]] = None


def _result_types():
    """Late import of the result dataclasses (retrieval.py imports this module).

    The tuple is cached after the first call: result construction happens per
    request (and per ranked entry) on the serving hot path, where a repeated
    module-import lookup is measurable.
    """
    global _RESULT_TYPES
    if _RESULT_TYPES is None:
        from .retrieval import RetrievalResult, RetrievalStatistics, ScoredImplementation

        _RESULT_TYPES = (RetrievalResult, RetrievalStatistics, ScoredImplementation)
    return _RESULT_TYPES


def _check_n(n: int) -> None:
    """Shared n-best argument validation (identical across all backends)."""
    if n <= 0:
        raise RetrievalError(f"n must be positive, got {n}")


def _check_threshold(threshold: float) -> None:
    """Shared threshold argument validation (identical across all backends)."""
    if not 0.0 <= threshold <= 1.0:
        raise RetrievalError(f"threshold must lie within [0, 1], got {threshold}")


class RetrievalBackend:
    """Execution strategy behind :class:`~repro.core.retrieval.RetrievalEngine`.

    A backend is bound to exactly one engine via :meth:`attach` and implements
    :meth:`score_all`; the retrieval modes (`best`, `n-best`, threshold,
    combined, batch) are provided here in terms of ``score_all`` so that every
    backend shares identical result semantics, validation messages and
    statistics accounting.  Backends may override the mode methods with faster
    equivalent implementations (see :class:`VectorizedBackend`).
    """

    name = "abstract"

    def __init__(self) -> None:
        self.engine: Optional["RetrievalEngine"] = None

    def attach(self, engine: "RetrievalEngine") -> "RetrievalBackend":
        """Bind this backend to its engine (called by the engine constructor)."""
        if self.engine is not None and self.engine is not engine:
            raise RetrievalError(
                f"backend {self.name!r} is already attached to another engine"
            )
        self.engine = engine
        return self

    def invalidate(self) -> None:
        """Drop any precomputed state derived from the case base."""

    # -- scoring -----------------------------------------------------------------

    def score_all(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> List["ScoredImplementation"]:
        """Score every implementation variant of the requested function type."""
        raise NotImplementedError

    # -- retrieval modes ----------------------------------------------------------

    def retrieve_best(self, request: FunctionRequest) -> "RetrievalResult":
        """Return the single most similar implementation (paper Fig. 6)."""
        RetrievalResult, RetrievalStatistics, _ = _result_types()
        statistics = RetrievalStatistics()
        scored = self.score_all(request, statistics)
        best = None
        for entry in scored:
            if best is None or entry.similarity > best.similarity:
                best = entry
                statistics.best_updates += 1
        ranked = [best] if best is not None else []
        return RetrievalResult(request.type_id, ranked, statistics)

    def retrieve_n_best(self, request: FunctionRequest, n: int) -> "RetrievalResult":
        """Return the ``n`` most similar implementations (section 5 extension)."""
        RetrievalResult, RetrievalStatistics, _ = _result_types()
        _check_n(n)
        statistics = RetrievalStatistics()
        scored = self.score_all(request, statistics)
        ranked = sorted(
            scored,
            key=lambda entry: (-entry.similarity, entry.implementation_id),
        )[:n]
        statistics.best_updates += len(ranked)
        return RetrievalResult(request.type_id, ranked, statistics)

    def retrieve_above_threshold(
        self, request: FunctionRequest, threshold: float
    ) -> "RetrievalResult":
        """Return all implementations whose similarity reaches ``threshold``."""
        RetrievalResult, RetrievalStatistics, _ = _result_types()
        _check_threshold(threshold)
        statistics = RetrievalStatistics()
        scored = self.score_all(request, statistics)
        ranked = sorted(
            (entry for entry in scored if entry.similarity >= threshold),
            key=lambda entry: (-entry.similarity, entry.implementation_id),
        )
        statistics.best_updates += len(ranked)
        return RetrievalResult(request.type_id, ranked, statistics, threshold=threshold)

    def retrieve(
        self,
        request: FunctionRequest,
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> "RetrievalResult":
        """Combined entry point: optional n-best cut and threshold rejection."""
        RetrievalResult, RetrievalStatistics, _ = _result_types()
        if n is None and threshold is None:
            return self.retrieve_best(request)
        statistics = RetrievalStatistics()
        scored = self.score_all(request, statistics)
        ranked = sorted(
            scored, key=lambda entry: (-entry.similarity, entry.implementation_id)
        )
        if threshold is not None:
            _check_threshold(threshold)
            ranked = [entry for entry in ranked if entry.similarity >= threshold]
        if n is not None:
            _check_n(n)
            ranked = ranked[:n]
        statistics.best_updates += len(ranked)
        return RetrievalResult(request.type_id, ranked, statistics, threshold=threshold)

    def retrieve_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List["RetrievalResult"]:
        """Evaluate many requests; result ``i`` belongs to request ``i``.

        The semantics per request are exactly those of :meth:`retrieve` (so
        ``n=None, threshold=None`` degrades to most-similar retrieval).
        """
        return [
            self.retrieve(request, n=n, threshold=threshold) for request in requests
        ]


class NaiveBackend(RetrievalBackend):
    """The original per-implementation Python loop (the golden algorithm)."""

    name = "naive"

    def score_all(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> List["ScoredImplementation"]:
        engine = self.engine
        function_type = engine.case_base.get_type(request.type_id)
        if len(function_type) == 0:
            raise RetrievalError(
                f"function type {request.type_id} has no implementation variants"
            )
        return [
            engine.score(request, implementation, statistics)
            for implementation in function_type.sorted_implementations()
        ]


class _TypeMatrices:
    """Columnar encoding of one function type's implementation variants."""

    __slots__ = (
        "implementations",
        "impl_ids",
        "columns",
        "values",
        "present",
        "column_all_absent",
        "column_absent_rows",
        "kernels",
        "block_stats",
    )

    #: Signature-kernel cache entries kept per type (cleared wholesale beyond).
    KERNEL_CACHE_CAPACITY = 128

    #: Rows per pre-filter block: the bounds screen summarises (and prunes)
    #: the matrices in runs of this many consecutive rows.
    BLOCK_ROWS = 1024

    def __init__(self, implementations: List[Implementation]) -> None:
        self.implementations = implementations
        self.impl_ids = np.array(
            [implementation.implementation_id for implementation in implementations],
            dtype=np.int64,
        )
        attribute_ids = sorted(
            {
                attribute_id
                for implementation in implementations
                for attribute_id in implementation.attributes
            }
        )
        self.columns: Dict[int, int] = {
            attribute_id: column for column, attribute_id in enumerate(attribute_ids)
        }
        shape = (len(implementations), len(attribute_ids))
        self.values = np.zeros(shape, dtype=np.float64)
        self.present = np.zeros(shape, dtype=bool)
        for row, implementation in enumerate(implementations):
            for attribute_id, value in implementation.attributes.items():
                column = self.columns[attribute_id]
                self.values[row, column] = float(value)
                self.present[row, column] = True
        self._refresh_column_stats()

    @classmethod
    def from_arrays(
        cls,
        implementations: List[Implementation],
        columns: Dict[int, int],
        impl_ids: np.ndarray,
        values: np.ndarray,
        present: np.ndarray,
    ) -> "_TypeMatrices":
        """Build from pre-encoded arrays (the image-store reopen path).

        The arrays may be zero-copy copy-on-write ``numpy.memmap`` views over
        a persisted image store: nothing is copied here, only the derived
        column statistics are recomputed.  Row ``i`` must describe
        ``implementations[i]`` with rows ascending by implementation ID --
        exactly what :meth:`__init__` would have produced from the same
        variant list.  Shape-changing delta events later migrate the arrays
        to private memory naturally (``np.concatenate`` allocates fresh
        arrays).
        """
        matrices = cls.__new__(cls)
        matrices.implementations = list(implementations)
        matrices.impl_ids = impl_ids
        matrices.columns = dict(columns)
        matrices.values = values
        matrices.present = present
        matrices._refresh_column_stats()
        return matrices

    def _refresh_column_stats(self) -> None:
        """Per-column absence summaries, hoisted off the retrieval hot path.

        The kernel needs, per constrained attribute, whether the column is
        entirely absent and which rows miss it; computing both here (and
        after every row patch) replaces three small-array NumPy calls per
        attribute per retrieval.
        """
        row_count = self.present.shape[0]
        self.column_all_absent: List[bool] = []
        self.column_absent_rows: List[Optional[np.ndarray]] = []
        for column in range(self.present.shape[1]):
            absent = np.flatnonzero(~self.present[:, column])
            self.column_all_absent.append(len(absent) == row_count)
            self.column_absent_rows.append(absent if len(absent) else None)
        #: Per-signature gathered kernels (see ``_signature_kernel``); any
        #: content change drops them with the rest of the derived state.
        self.kernels: Dict[Tuple[int, ...], Tuple] = {}
        #: Per-block column summaries for the bounds pre-filter, computed
        #: lazily (they share the kernels' drop-on-content-change lifecycle).
        self.block_stats: Optional[Tuple] = None

    def block_summaries(self) -> Tuple:
        """Per-block per-column summaries backing the bounds pre-filter.

        Returns ``(starts, block_min, block_max, any_present, any_absent)``:
        block ``b`` covers rows ``starts[b] .. starts[b] + BLOCK_ROWS`` and
        the ``(B, C)`` arrays give, per block and column, the min/max over
        *present* cells (``+inf``/``-inf`` when none are) and whether the
        block holds any present / any absent cell in that column.
        """
        if self.block_stats is None:
            row_count, column_count = self.values.shape
            starts = np.arange(0, max(row_count, 1), self.BLOCK_ROWS, dtype=np.intp)
            if row_count == 0:
                shape = (len(starts), column_count)
                self.block_stats = (
                    starts,
                    np.zeros(shape, dtype=np.float64),
                    np.zeros(shape, dtype=np.float64),
                    np.zeros(shape, dtype=bool),
                    np.zeros(shape, dtype=bool),
                )
            else:
                masked_min = np.where(self.present, self.values, np.inf)
                masked_max = np.where(self.present, self.values, -np.inf)
                block_min = np.minimum.reduceat(masked_min, starts, axis=0)
                block_max = np.maximum.reduceat(masked_max, starts, axis=0)
                present_counts = np.add.reduceat(
                    self.present.astype(np.int64), starts, axis=0
                )
                lengths = np.diff(np.append(starts, row_count))
                any_present = present_counts > 0
                any_absent = present_counts < lengths[:, None]
                self.block_stats = (starts, block_min, block_max, any_present, any_absent)
        return self.block_stats

    # -- incremental row patching (delta application) ----------------------------

    def _row(self, implementation: Implementation):
        """Encode one implementation as ``(values, present)`` rows.

        Returns ``None`` when the implementation describes an attribute this
        matrix has no column for -- the caller then rebuilds the type's
        matrices from scratch (a fresh build would allocate the column).
        A column left entirely absent by removals behaves exactly like a
        fresh build without it (the kernel's missing-attribute path), so
        columns are never shrunk in place.
        """
        values = np.zeros(len(self.columns), dtype=np.float64)
        present = np.zeros(len(self.columns), dtype=bool)
        for attribute_id, value in implementation.attributes.items():
            column = self.columns.get(attribute_id)
            if column is None:
                return None
            values[column] = float(value)
            present[column] = True
        return values, present

    def _index_of(self, implementation_id: int) -> Optional[int]:
        """Row index of one implementation ID (rows ascend by ID)."""
        index = int(np.searchsorted(self.impl_ids, implementation_id))
        if index >= len(self.impl_ids) or self.impl_ids[index] != implementation_id:
            return None
        return index

    def apply_event(self, event: "NetImplementationEvent") -> bool:
        """Absorb one net delta event in place; ``False`` asks for a rebuild."""
        if event.kind == NetImplementationEvent.REMOVED:
            index = self._index_of(event.implementation_id)
            if index is None:
                return False
            del self.implementations[index]
            self.impl_ids = np.concatenate([self.impl_ids[:index], self.impl_ids[index + 1:]])
            self.values = np.concatenate([self.values[:index], self.values[index + 1:]])
            self.present = np.concatenate([self.present[:index], self.present[index + 1:]])
            self._refresh_column_stats()
            return True
        implementation = event.implementation
        if implementation is None:
            return False
        row = self._row(implementation)
        if row is None:
            return False
        values, present = row
        if event.kind == NetImplementationEvent.ADDED:
            index = int(np.searchsorted(self.impl_ids, implementation.implementation_id))
            self.implementations.insert(index, implementation)
            self.impl_ids = np.concatenate([
                self.impl_ids[:index],
                np.array([implementation.implementation_id], dtype=np.int64),
                self.impl_ids[index:],
            ])
            self.values = np.concatenate(
                [self.values[:index], values[None, :], self.values[index:]]
            )
            self.present = np.concatenate(
                [self.present[:index], present[None, :], self.present[index:]]
            )
            self._refresh_column_stats()
            return True
        index = self._index_of(implementation.implementation_id)
        if index is None:
            return False
        self.implementations[index] = implementation
        self.values[index] = values
        self.present[index] = present
        self._refresh_column_stats()
        return True


class VectorizedBackend(RetrievalBackend):
    """Batch-capable NumPy execution of the golden retrieval algorithm.

    The backend supports engines configured with the paper's similarity
    machinery -- :class:`WeightedSum` amalgamation and the plain
    :class:`LocalSimilarity` over :class:`ManhattanDistance` -- which is what
    the hardware unit implements.  :meth:`supports` reports compatibility;
    the engine transparently falls back to :class:`NaiveBackend` for custom
    metrics or amalgamations.
    """

    name = "vectorized"

    #: Smallest implementation count worth screening: below a few blocks the
    #: bound computation costs more than the full evaluation it would save,
    #: so the pre-filter transparently falls through to the plain kernel.
    PREFILTER_MIN_ROWS = 4096

    def __init__(self) -> None:
        super().__init__()
        self._cache: Dict[int, _TypeMatrices] = {}
        self._reciprocals: Dict[int, float] = {}
        self._tracker: Optional[RevisionTrackedCache] = None
        #: Pre-filter effectiveness counters (plain ints; the serving layer
        #: folds them into its metrics registry).
        self.prefilter_requests = 0
        self.prefilter_rows_total = 0
        self.prefilter_rows_pruned = 0

    # -- compatibility -----------------------------------------------------------

    @classmethod
    def supports(cls, engine: "RetrievalEngine") -> bool:
        """Whether the engine's similarity configuration can be vectorized."""
        return (
            type(engine.amalgamation) is WeightedSum
            and type(engine.local_similarity) is LocalSimilarity
            and type(engine.local_similarity.metric) is ManhattanDistance
        )

    # -- cache management --------------------------------------------------------

    def invalidate(self) -> None:
        self._cache.clear()
        self._reciprocals.clear()
        if self._tracker is not None:
            self._tracker.invalidate()

    def _rebuild(self) -> None:
        """Full-rebuild fallback: drop everything, repopulate lazily."""
        self._cache.clear()
        self._reciprocals.clear()

    def _apply_deltas(self, summary: DeltaSummary) -> bool:
        """Patch the per-type matrices from one compacted delta window.

        The engine's bounds snapshot (and hence every ``1/(1+dmax)``
        reciprocal) is fixed at engine construction, so even the
        ``BOUNDS_CHANGED`` delta leaves the cached reciprocals valid -- a
        full rebuild would recompute identical values from the same
        ``local_similarity.bounds`` object.  Types are only patched when
        already materialised; untouched (or dropped) types rebuild lazily on
        their next use, touching exactly the types the window named.
        """
        for type_id in summary.reset_types:
            self._cache.pop(type_id, None)
        for type_id, events in summary.impl_events.items():
            matrices = self._cache.get(type_id)
            if matrices is None:
                continue
            for event in events.values():
                if not matrices.apply_event(event):
                    self._cache.pop(type_id, None)
                    break
        return True

    def adopt_matrices(self, cache: Dict[int, _TypeMatrices]) -> None:
        """Seed the per-type matrix cache wholesale (the image-store path).

        Pre-built matrices (e.g. zero-copy views over a reopened image store,
        see :meth:`_TypeMatrices.from_arrays`) are installed here instead of
        re-encoding every implementation row.  The tracker is marked current
        so the first ``ensure_current`` does not wipe the seeded state with a
        full rebuild; later case-base mutations still patch it incrementally
        through the normal delta window machinery.
        """
        self._cache = dict(cache)
        self._reciprocals.clear()
        self.tracker.mark_current()

    @property
    def tracker(self) -> RevisionTrackedCache:
        """The backend's delta subscription (bound lazily to the engine)."""
        if self._tracker is None or self._tracker.case_base is not self.engine.case_base:
            self._tracker = RevisionTrackedCache(
                self.engine.case_base,
                rebuild=self._rebuild,
                apply=self._apply_deltas,
            )
        return self._tracker

    def _matrices_for(self, type_id: int, *, current: bool = False) -> _TypeMatrices:
        """Per-type matrices; ``current=True`` when the caller already ran
        :meth:`RevisionTrackedCache.ensure_current` for the whole batch."""
        case_base = self.engine.case_base
        if not current:
            self.tracker.ensure_current()
        matrices = self._cache.get(type_id)
        if matrices is None:
            function_type = case_base.get_type(type_id)
            matrices = _TypeMatrices(function_type.sorted_implementations())
            self._cache[type_id] = matrices
        return matrices

    def _reciprocal(self, attribute_id: int) -> float:
        """The cached ``1 / (1 + dmax)`` constant of one attribute type."""
        reciprocal = self._reciprocals.get(attribute_id)
        if reciprocal is None:
            bound = self.engine.local_similarity.bounds.get(attribute_id)
            reciprocal = bound.reciprocal
            self._reciprocals[attribute_id] = reciprocal
        return reciprocal

    # -- the vectorized kernel ----------------------------------------------------

    def _validate(self, request: FunctionRequest, *, current: bool = False) -> _TypeMatrices:
        """Mirror the error behaviour of the naive scoring path."""
        matrices = self._matrices_for(request.type_id, current=current)
        if len(matrices.implementations) == 0:
            raise RetrievalError(
                f"function type {request.type_id} has no implementation variants"
            )
        if len(request) == 0:
            raise RetrievalError("cannot score a request without constraining attributes")
        return matrices

    def _signature_kernel(
        self, matrices: _TypeMatrices, attribute_ids: Tuple[int, ...]
    ) -> Tuple:
        """Gathered kernel inputs for one ``(type, constrained-IDs)`` signature.

        Serving traffic repeats a few hot signatures, so the per-signature
        column gather -- the ``(I, A)`` case-value sub-matrix, the ``(A,)``
        reciprocal vector and the flattened absent-cell index pairs -- is
        cached on the type's matrices (and dropped with them on any content
        change).  Missing columns gather zeros; their cells are in the absent
        index set, so the placeholder arithmetic is overwritten before use.
        """
        kernel = matrices.kernels.get(attribute_ids)
        if kernel is not None:
            return kernel
        implementation_count = len(matrices.implementations)
        width = len(attribute_ids)
        sub_values = np.zeros((implementation_count, width), dtype=np.float64)
        reciprocals = np.zeros(width, dtype=np.float64)
        absent_row_parts: List[np.ndarray] = []
        absent_column_parts: List[np.ndarray] = []
        for column_index, attribute_id in enumerate(attribute_ids):
            column = matrices.columns.get(attribute_id)
            if column is None or matrices.column_all_absent[column]:
                absent_row_parts.append(np.arange(implementation_count, dtype=np.intp))
                absent_column_parts.append(
                    np.full(implementation_count, column_index, dtype=np.intp)
                )
                continue
            sub_values[:, column_index] = matrices.values[:, column]
            reciprocals[column_index] = self._reciprocal(attribute_id)
            absent_rows = matrices.column_absent_rows[column]
            if absent_rows is not None:
                absent_row_parts.append(absent_rows.astype(np.intp))
                absent_column_parts.append(
                    np.full(len(absent_rows), column_index, dtype=np.intp)
                )
        if absent_row_parts:
            absent_rows_index = np.concatenate(absent_row_parts)
            absent_columns_index = np.concatenate(absent_column_parts)
        else:
            absent_rows_index = absent_columns_index = None
        missing_count = 0 if absent_rows_index is None else int(len(absent_rows_index))
        kernel = (sub_values, reciprocals, absent_rows_index, absent_columns_index, missing_count)
        if len(matrices.kernels) >= _TypeMatrices.KERNEL_CACHE_CAPACITY:
            matrices.kernels.clear()
        matrices.kernels[attribute_ids] = kernel
        return kernel

    def _similarity_rows(
        self,
        matrices: _TypeMatrices,
        attribute_ids: Tuple[int, ...],
        request_values: np.ndarray,
        weight_rows: np.ndarray,
    ) -> Tuple[np.ndarray, int, int]:
        """Global similarities for a group of same-signature requests.

        ``request_values`` and ``weight_rows`` are ``(B, A)`` arrays; the
        return value is the ``(B, I)`` global-similarity matrix plus the
        per-request ``(missing, compared)`` attribute counts (identical for
        every request in the group, because the signature is shared).

        The arithmetic is the golden scalar computation, operation for
        operation: element-wise ``1 - d * (1/(1+dmax))`` (one tensor op over
        all attributes at once is bit-identical to the per-column form),
        clamped, missing cells forced to ``missing_similarity``, and the
        weighted sum folded column by column in ascending attribute-ID order
        exactly like the scalar ``sum()``.
        """
        local = self.engine.local_similarity
        batch_size = request_values.shape[0]
        implementation_count = len(matrices.implementations)
        sub_values, reciprocals, absent_rows_index, absent_columns_index, missing_count = (
            self._signature_kernel(matrices, attribute_ids)
        )
        similarities = np.abs(request_values[:, None, :] - sub_values[None, :, :])
        similarities *= reciprocals
        np.subtract(1.0, similarities, out=similarities)
        if local.clamp:
            # clip == minimum(maximum(x, 0), 1); direct ufunc calls skip the
            # np.clip dispatch overhead that dominates single-request batches.
            np.maximum(similarities, 0.0, out=similarities)
            np.minimum(similarities, 1.0, out=similarities)
        if absent_rows_index is not None:
            similarities[:, absent_rows_index, absent_columns_index] = (
                local.missing_similarity
            )
        # One element-wise multiply for all weights at once, then a strictly
        # sequential fold over the attribute columns in ascending-ID order --
        # the same additions, in the same order, as the scalar ``sum()``.
        similarities *= weight_rows[:, None, :]
        accumulator = np.zeros((batch_size, implementation_count), dtype=np.float64)
        for column_index in range(len(attribute_ids)):
            accumulator += similarities[:, :, column_index]
        compared_count = implementation_count * len(attribute_ids) - missing_count
        return accumulator, missing_count, compared_count

    # -- the bounds pre-filter (two-stage exact retrieval) -------------------------
    #
    # The screen computes, per block of ``_TypeMatrices.BLOCK_ROWS`` rows, a
    # rigorous IEEE-754 upper bound on every row's global similarity, using
    # the *same* operation sequence as the exact kernel (interval distance ->
    # ``d * (1/(1+dmax))`` -> ``1 - x`` -> clamp -> missing-similarity ->
    # weight -> ascending-attribute-ID fold).  Correctly-rounded double ops
    # are monotone, so each step preserves "bound >= every cell", and blocks
    # whose bound falls strictly below the acceptance cut can be skipped
    # without evaluating a single row.  Surviving rows then run through the
    # ordinary kernel arithmetic -- per-row the identical op sequence on the
    # identical operands -- which is what makes the pruned path bit-identical
    # (rankings, similarity doubles, statistics) to the full scan; strict
    # ``bound < cut`` pruning keeps ties (broken by ascending implementation
    # ID) intact.  Statistics stay exact because the vectorized path books
    # them analytically from the full matrix shape, not from evaluated rows.

    def _prefilter_active(self) -> bool:
        """Whether the engine asked for the bounds screen."""
        engine = self.engine
        return engine is not None and getattr(engine, "prefilter", "off") == "bounds"

    def _block_upper_bounds(
        self,
        matrices: _TypeMatrices,
        attribute_ids: Tuple[int, ...],
        values: Tuple[float, ...],
        weights: Tuple[float, ...],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, bounds)``: a per-block upper bound on the row similarities.

        Weights are guaranteed non-negative (``RequestAttribute`` rejects
        negative weights), so multiplying a per-cell upper bound by the
        weight keeps it an upper bound.
        """
        local = self.engine.local_similarity
        starts, block_min, block_max, any_present, any_absent = matrices.block_summaries()
        upper = np.zeros(len(starts), dtype=np.float64)
        for column_index, attribute_id in enumerate(attribute_ids):
            weight = weights[column_index]
            column = matrices.columns.get(attribute_id)
            if column is None or matrices.column_all_absent[column]:
                # Every cell takes the missing-similarity placeholder exactly.
                upper += local.missing_similarity * weight
                continue
            value = values[column_index]
            # Min distance from the request value to the block's [min, max]
            # interval: 0 inside, else the gap -- computed with the same
            # subtractions the kernel's |v - value_i| resolves to at the
            # interval endpoints, so rounding keeps the bound rigorous.
            distance = np.maximum(block_min[:, column] - value, value - block_max[:, column])
            np.maximum(distance, 0.0, out=distance)
            column_upper = 1.0 - distance * self._reciprocal(attribute_id)
            if local.clamp:
                np.maximum(column_upper, 0.0, out=column_upper)
                np.minimum(column_upper, 1.0, out=column_upper)
            # Blocks with no present cell in this column contribute only
            # missing-similarity placeholders; the interval bound is vacuous.
            column_upper[~any_present[:, column]] = -np.inf
            absent = any_absent[:, column]
            if absent.any():
                np.maximum(
                    column_upper, local.missing_similarity, out=column_upper, where=absent
                )
            upper += column_upper * weight
        return starts, upper

    def _similarity_rows_subset(
        self,
        matrices: _TypeMatrices,
        attribute_ids: Tuple[int, ...],
        request_values: np.ndarray,
        weight_rows: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Exact similarities for a row subset: :meth:`_similarity_rows`
        restricted to ``rows`` -- per row the identical operation sequence on
        the identical operands, hence bit-identical to the full evaluation."""
        local = self.engine.local_similarity
        sub_values, reciprocals, absent_rows_index, absent_columns_index, _ = (
            self._signature_kernel(matrices, attribute_ids)
        )
        similarities = np.abs(request_values[:, None, :] - sub_values[rows][None, :, :])
        similarities *= reciprocals
        np.subtract(1.0, similarities, out=similarities)
        if local.clamp:
            np.maximum(similarities, 0.0, out=similarities)
            np.minimum(similarities, 1.0, out=similarities)
        if absent_rows_index is not None:
            # Re-map the kernel's full-matrix absent-cell pairs onto the subset.
            positions = np.full(len(matrices.implementations), -1, dtype=np.intp)
            positions[rows] = np.arange(len(rows), dtype=np.intp)
            subset_rows = positions[absent_rows_index]
            keep = subset_rows >= 0
            if keep.any():
                similarities[:, subset_rows[keep], absent_columns_index[keep]] = (
                    local.missing_similarity
                )
        similarities *= weight_rows[:, None, :]
        accumulator = np.zeros((request_values.shape[0], len(rows)), dtype=np.float64)
        for column_index in range(len(attribute_ids)):
            accumulator += similarities[:, :, column_index]
        return accumulator

    def _retrieve_pruned(
        self,
        request: FunctionRequest,
        matrices: _TypeMatrices,
        attribute_ids: Tuple[int, ...],
        values: Tuple[float, ...],
        weights: Tuple[float, ...],
        statistics: "RetrievalStatistics",
        *,
        n: Optional[int],
        threshold: Optional[float],
        record_threshold: Optional[float],
    ) -> "RetrievalResult":
        """Two-stage ranked retrieval: screen blocks, evaluate survivors exactly.

        ``n``/``threshold`` must already be validated; best-mode retrieval
        (``n is None and threshold is None``) never reaches this path because
        its ``best_updates`` counter is defined over the full scan order.
        """
        RetrievalResult, _, _ = _result_types()
        implementation_count = len(matrices.implementations)
        _, _, _, _, missing_count = self._signature_kernel(matrices, attribute_ids)
        compared = implementation_count * len(attribute_ids) - missing_count
        self._account(statistics, matrices, attribute_ids, missing_count, compared)
        request_values = np.array([values], dtype=np.float64)
        weight_rows = np.array([weights], dtype=np.float64)
        starts, upper = self._block_upper_bounds(matrices, attribute_ids, values, weights)
        block = matrices.BLOCK_ROWS

        def block_rows(index: int) -> np.ndarray:
            start = int(starts[index])
            return np.arange(
                start, min(start + block, implementation_count), dtype=np.intp
            )

        # Stage 1: threshold screening -- a block bounded strictly below the
        # threshold cannot contribute a row reaching it.
        kept = (
            np.flatnonzero(upper >= threshold)
            if threshold is not None
            else np.arange(len(starts), dtype=np.intp)
        )
        rows_parts: List[np.ndarray] = []
        sims_parts: List[np.ndarray] = []
        if n is not None and len(kept):
            # Stage 2 (n-best): evaluate blocks in descending-bound order
            # until >= n rows are scored; the n-th best qualifying exact
            # similarity then prunes every remaining block bounded strictly
            # below it (the final n-th best can only be higher).
            order = kept[np.argsort(-upper[kept], kind="stable")]
            covered = 0
            seed_count = 0
            for block_index in order:
                covered += len(block_rows(int(block_index)))
                seed_count += 1
                if covered >= n:
                    break
            seed_rows = np.concatenate(
                [block_rows(int(index)) for index in order[:seed_count]]
            )
            seed_sims = self._similarity_rows_subset(
                matrices, attribute_ids, request_values, weight_rows, seed_rows
            )[0]
            rows_parts.append(seed_rows)
            sims_parts.append(seed_sims)
            qualifying = (
                seed_sims if threshold is None else seed_sims[seed_sims >= threshold]
            )
            rest = order[seed_count:]
            if len(qualifying) >= n:
                cut = -np.partition(-qualifying, n - 1)[n - 1]
                rest = rest[upper[rest] >= cut]
            if len(rest):
                rest_rows = np.concatenate(
                    [block_rows(int(index)) for index in np.sort(rest)]
                )
                rows_parts.append(rest_rows)
                sims_parts.append(
                    self._similarity_rows_subset(
                        matrices, attribute_ids, request_values, weight_rows, rest_rows
                    )[0]
                )
        elif len(kept):
            survivor_rows = np.concatenate([block_rows(int(index)) for index in kept])
            rows_parts.append(survivor_rows)
            sims_parts.append(
                self._similarity_rows_subset(
                    matrices, attribute_ids, request_values, weight_rows, survivor_rows
                )[0]
            )
        if rows_parts:
            rows = np.concatenate(rows_parts)
            similarities = np.concatenate(sims_parts)
            ascending = np.argsort(rows, kind="stable")
            rows = rows[ascending]
            similarities = similarities[ascending]
        else:
            rows = np.zeros(0, dtype=np.intp)
            similarities = np.zeros(0, dtype=np.float64)
        self.prefilter_requests += 1
        self.prefilter_rows_total += implementation_count
        self.prefilter_rows_pruned += implementation_count - len(rows)
        # Rank the survivors: rows ascend by implementation ID, so a stable
        # descending-similarity sort reproduces the full path's lexsort ties.
        order = np.argsort(-similarities, kind="stable")
        if threshold is not None:
            order = order[similarities[order] >= threshold]
        if n is not None:
            order = order[:n]
        _, _, ScoredImplementation = _result_types()
        ranked = [
            ScoredImplementation(
                type_id=request.type_id,
                implementation=matrices.implementations[int(rows[int(index)])],
                similarity=float(similarities[int(index)]),
            )
            for index in order
        ]
        statistics.best_updates += len(ranked)
        return RetrievalResult(
            request.type_id, ranked, statistics, threshold=record_threshold
        )

    def _evaluate_one(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> Tuple[_TypeMatrices, np.ndarray]:
        """Similarity row for one request, with statistics accounting."""
        matrices = self._validate(request)
        attribute_ids, values, weights = request.kernel_inputs()
        request_values = np.array([values], dtype=np.float64)
        weight_rows = np.array([weights], dtype=np.float64)
        similarities, missing, compared = self._similarity_rows(
            matrices, attribute_ids, request_values, weight_rows
        )
        self._account(statistics, matrices, attribute_ids, missing, compared)
        return matrices, similarities[0]

    @staticmethod
    def _account(
        statistics: "RetrievalStatistics",
        matrices: _TypeMatrices,
        attribute_ids: Tuple[int, ...],
        missing: int,
        compared: int,
    ) -> None:
        """Book the same algorithmic-effort counters the naive loop accumulates."""
        implementation_count = len(matrices.implementations)
        statistics.implementations_visited += implementation_count
        statistics.attributes_requested += implementation_count * len(attribute_ids)
        statistics.attribute_lookups += implementation_count * len(attribute_ids)
        statistics.missing_attributes += missing
        statistics.attribute_compares += compared
        statistics.multiplications += compared

    # -- result construction -------------------------------------------------------

    def _scored(
        self,
        request: FunctionRequest,
        matrices: _TypeMatrices,
        similarities: np.ndarray,
        index: int,
    ) -> "ScoredImplementation":
        _, _, ScoredImplementation = _result_types()
        return ScoredImplementation(
            type_id=request.type_id,
            implementation=matrices.implementations[index],
            similarity=float(similarities[index]),
        )

    @staticmethod
    def _ranking_order(matrices: _TypeMatrices, similarities: np.ndarray) -> np.ndarray:
        """Indices sorted by descending similarity, ascending implementation ID."""
        return np.lexsort((matrices.impl_ids, -similarities))

    def _best_result(
        self,
        request: FunctionRequest,
        matrices: _TypeMatrices,
        similarities: np.ndarray,
        statistics: "RetrievalStatistics",
    ) -> "RetrievalResult":
        RetrievalResult, _, _ = _result_types()
        # The hardware's strict S > S_best update rule: count prefix maxima so
        # the best_updates counter matches the sequential scan exactly.
        running = np.maximum.accumulate(similarities)
        statistics.best_updates += 1 + int(
            np.count_nonzero(similarities[1:] > running[:-1])
        )
        best_index = int(np.argmax(similarities))
        ranked = [self._scored(request, matrices, similarities, best_index)]
        return RetrievalResult(request.type_id, ranked, statistics)

    def _ranked_result(
        self,
        request: FunctionRequest,
        matrices: _TypeMatrices,
        similarities: np.ndarray,
        statistics: "RetrievalStatistics",
        *,
        n: Optional[int],
        threshold: Optional[float],
        record_threshold: Optional[float],
        order: Optional[np.ndarray] = None,
    ) -> "RetrievalResult":
        """Build a ranked result; ``order`` may carry a precomputed ranking.

        ``retrieve_batch`` computes the ranking orders of a whole signature
        group in one stable ``argsort`` call (identical to the per-request
        lexsort because ``matrices.impl_ids`` ascends with the row index) and
        passes each row in via ``order``.
        """
        RetrievalResult, _, _ = _result_types()
        if order is None:
            order = self._ranking_order(matrices, similarities)
        if threshold is not None:
            order = order[similarities[order] >= threshold]
        if n is not None:
            order = order[:n]
        ranked = [
            self._scored(request, matrices, similarities, int(index)) for index in order
        ]
        statistics.best_updates += len(ranked)
        return RetrievalResult(
            request.type_id, ranked, statistics, threshold=record_threshold
        )

    # -- RetrievalBackend interface -------------------------------------------------

    def score_all(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> List["ScoredImplementation"]:
        matrices, similarities = self._evaluate_one(request, statistics)
        return [
            self._scored(request, matrices, similarities, index)
            for index in range(len(matrices.implementations))
        ]

    def retrieve_best(self, request: FunctionRequest) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        statistics = RetrievalStatistics()
        matrices, similarities = self._evaluate_one(request, statistics)
        return self._best_result(request, matrices, similarities, statistics)

    def retrieve_n_best(self, request: FunctionRequest, n: int) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        _check_n(n)
        statistics = RetrievalStatistics()
        if self._prefilter_active():
            matrices = self._validate(request)
            if len(matrices.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                return self._retrieve_pruned(
                    request, matrices, attribute_ids, values, weights, statistics,
                    n=n, threshold=None, record_threshold=None,
                )
        matrices, similarities = self._evaluate_one(request, statistics)
        return self._ranked_result(
            request, matrices, similarities, statistics,
            n=n, threshold=None, record_threshold=None,
        )

    def retrieve_above_threshold(
        self, request: FunctionRequest, threshold: float
    ) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        _check_threshold(threshold)
        statistics = RetrievalStatistics()
        if self._prefilter_active():
            matrices = self._validate(request)
            if len(matrices.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                return self._retrieve_pruned(
                    request, matrices, attribute_ids, values, weights, statistics,
                    n=None, threshold=threshold, record_threshold=threshold,
                )
        matrices, similarities = self._evaluate_one(request, statistics)
        return self._ranked_result(
            request, matrices, similarities, statistics,
            n=None, threshold=threshold, record_threshold=threshold,
        )

    def retrieve(
        self,
        request: FunctionRequest,
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        if n is None and threshold is None:
            return self.retrieve_best(request)
        statistics = RetrievalStatistics()
        if self._prefilter_active():
            matrices = self._validate(request)
            if len(matrices.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                # Surface kernel-level scoring errors (e.g. a bounds-table
                # gap) before the mode-argument checks, mirroring the
                # unpruned path's evaluate-then-validate order.
                self._signature_kernel(matrices, attribute_ids)
                if threshold is not None:
                    _check_threshold(threshold)
                if n is not None:
                    _check_n(n)
                return self._retrieve_pruned(
                    request, matrices, attribute_ids, values, weights, statistics,
                    n=n, threshold=threshold, record_threshold=threshold,
                )
        matrices, similarities = self._evaluate_one(request, statistics)
        # Validation order mirrors the naive combined entry point (arguments
        # are checked only after scoring).
        if threshold is not None:
            _check_threshold(threshold)
        if n is not None:
            _check_n(n)
        return self._ranked_result(
            request, matrices, similarities, statistics,
            n=n, threshold=threshold, record_threshold=threshold,
        )

    def retrieve_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List["RetrievalResult"]:
        """Grouped matrix evaluation of a whole request batch.

        Requests sharing a ``(type_id, constrained-attribute-set)`` signature
        are stacked into one ``(B, A)`` value matrix and evaluated against the
        type's ``(I, A)`` case matrix in a single broadcast pass; weights may
        differ freely within a group.

        Error-ordering caveat: scoring errors only detectable inside the
        kernel (e.g. a constrained attribute missing from the bounds table)
        surface during group evaluation, *after* the mode-argument checks --
        whereas the sequential naive loop scores request 0 completely before
        validating ``n``/``threshold``.  For batches that are erroneous in
        both ways at once the two backends may therefore raise different
        (equally valid) ``RetrievalError``\\ s.
        """
        _, RetrievalStatistics, _ = _result_types()
        requests = list(requests)
        # Validate in request order: request 0's structural and weight checks,
        # then the mode arguments, then the remaining requests.  (Scoring
        # errors only detectable inside the kernel -- e.g. a bounds-table gap
        # -- surface later, during group evaluation.)
        self.tracker.ensure_current()  # one refresh for the whole batch
        groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        matrices_by_request: List[_TypeMatrices] = []
        kernel_inputs_by_request: List[Tuple] = []
        for index, request in enumerate(requests):
            matrices = self._validate(request, current=True)
            kernel_inputs_by_request.append(request.kernel_inputs())
            if index == 0:
                if threshold is not None:
                    _check_threshold(threshold)
                if n is not None:
                    _check_n(n)
            matrices_by_request.append(matrices)
            key = (request.type_id, kernel_inputs_by_request[index][0])
            groups.setdefault(key, []).append(index)
        results: List[Optional["RetrievalResult"]] = [None] * len(requests)
        prefilter = self._prefilter_active() and not (n is None and threshold is None)
        for (type_id, attribute_ids), member_indices in groups.items():
            matrices = matrices_by_request[member_indices[0]]
            if prefilter and len(matrices.implementations) >= self.PREFILTER_MIN_ROWS:
                # Huge types: per-request block pruning beats the grouped
                # full-matrix broadcast.  Statistics stay the group-constant
                # full-scan counters, booked inside the pruned path.
                for index in member_indices:
                    request = requests[index]
                    statistics = RetrievalStatistics()
                    _, values, weights = kernel_inputs_by_request[index]
                    results[index] = self._retrieve_pruned(
                        request, matrices, attribute_ids, values, weights, statistics,
                        n=n, threshold=threshold, record_threshold=threshold,
                    )
                continue
            request_values = np.array(
                [kernel_inputs_by_request[index][1] for index in member_indices],
                dtype=np.float64,
            )
            weight_rows = np.array(
                [kernel_inputs_by_request[index][2] for index in member_indices],
                dtype=np.float64,
            )
            similarity_rows, missing, compared = self._similarity_rows(
                matrices, attribute_ids, request_values, weight_rows
            )
            if n is None and threshold is None:
                orders = None
            else:
                # One stable sort for the whole group: descending similarity
                # with ties in row-index order, which is ascending
                # implementation ID by construction -- exactly the
                # per-request lexsort of :meth:`_ranking_order`.
                orders = np.argsort(-similarity_rows, axis=1, kind="stable")
            # Group-constant effort counters (see :meth:`_account`), built
            # directly into each request's statistics record.
            implementation_count = len(matrices.implementations)
            attribute_total = implementation_count * len(attribute_ids)
            for row, index in enumerate(member_indices):
                request = requests[index]
                statistics = RetrievalStatistics(
                    implementations_visited=implementation_count,
                    attributes_requested=attribute_total,
                    attribute_lookups=attribute_total,
                    attribute_compares=compared,
                    missing_attributes=missing,
                    multiplications=compared,
                )
                similarities = similarity_rows[row]
                if orders is None:
                    results[index] = self._best_result(
                        request, matrices, similarities, statistics
                    )
                else:
                    results[index] = self._ranked_result(
                        request, matrices, similarities, statistics,
                        n=n, threshold=threshold, record_threshold=threshold,
                        order=orders[row],
                    )
        return results


#: Registry of constructable backend names (used by the engine, manager and CLI).
BACKENDS = {
    NaiveBackend.name: NaiveBackend,
    "reference": NaiveBackend,
    VectorizedBackend.name: VectorizedBackend,
}


def get_retrieval_backend(name: str) -> RetrievalBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = BACKENDS[name]
    except KeyError as exc:
        raise RetrievalError(
            f"unknown retrieval backend {name!r}; known: {sorted(BACKENDS)}"
        ) from exc
    return factory()


def resolve_backend(
    spec: Union[str, RetrievalBackend, None], engine: "RetrievalEngine"
) -> RetrievalBackend:
    """Turn a backend spec (name, instance or ``None``) into an attached backend.

    A ``"vectorized"`` request against an engine whose similarity configuration
    the vectorized kernel cannot reproduce (custom amalgamation, metric or
    local-similarity subclass) transparently falls back to the naive backend,
    so callers may select vectorization unconditionally.
    """
    if spec is None:
        spec = NaiveBackend.name
    backend = get_retrieval_backend(spec) if isinstance(spec, str) else spec
    if isinstance(backend, VectorizedBackend) and not VectorizedBackend.supports(engine):
        backend = NaiveBackend()
    return backend.attach(engine)
