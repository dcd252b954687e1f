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
  section-4.1 cost argument.  It reads the case base's one columnar image
  (:class:`~repro.core.columnar.TypeTables`: per function type a dense
  attribute table in ascending attribute-ID order) with the paper's
  ``1 / (1 + dmax)`` reciprocals baked in (exactly the supplemental-list
  trick of the hardware unit, Fig. 4 right), and evaluates whole *batches*
  of requests as array operations.

Bit-identical equivalence is achieved by mirroring the scalar arithmetic of
:class:`~repro.core.similarity.LocalSimilarity` and
:class:`~repro.core.amalgamation.WeightedSum` operation for operation: the
local similarity is ``1 - d * (1 / (1 + dmax))`` in both paths (IEEE-754
double ops are correctly rounded, so element-wise NumPy arithmetic matches the
scalar interpreter arithmetic exactly) and the weighted sum accumulates the
attributes in ascending attribute-ID order, just like the scalar ``sum()``.

The backend keeps no copy of the case base: the shared image follows the
case base's :class:`~repro.core.deltas.DeltaLog` through one
:class:`~repro.core.caching.RevisionTrackedCache` subscription and patches
the touched type tables once per delta window, for every consumer at once.
Mutating an :class:`Implementation`'s attribute dict in place bypasses the
revision counter -- the same caveat that applies to the hardware unit's
memory images -- and requires an explicit :meth:`RetrievalBackend.invalidate`,
which rebuilds the shared image and the case base's encoded CB-MEM words.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .amalgamation import WeightedSum
from .columnar import TypeTable
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
        """Drop state derived from the case base after in-place edits.

        Rebuilds the case base's shared columnar image and, with it, its
        encoded CB-MEM words (see
        :meth:`~repro.core.columnar.TypeTables.invalidate`).
        """
        if self.engine is not None:
            self.engine.case_base.type_tables.invalidate()

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
        #: ``1 / (1 + dmax)`` per attribute ID.  Bounds entries are never
        #: replaced (:meth:`~repro.core.attributes.BoundsTable.add` refuses duplicates), so in-place
        #: case-base edits cannot make these stale.
        self._reciprocals: Dict[int, float] = {}
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

    def _reciprocal(self, attribute_id: int) -> float:
        """The cached ``1 / (1 + dmax)`` constant of one attribute type."""
        reciprocal = self._reciprocals.get(attribute_id)
        if reciprocal is None:
            bound = self.engine.local_similarity.bounds.get(attribute_id)
            reciprocal = bound.reciprocal
            self._reciprocals[attribute_id] = reciprocal
        return reciprocal

    # -- the vectorized kernel ----------------------------------------------------

    def _validate(self, request: FunctionRequest, *, current: bool = False) -> TypeTable:
        """Mirror the error behaviour of the naive scoring path."""
        table = self.engine.case_base.type_tables.table(request.type_id, current=current)
        if len(table.implementations) == 0:
            raise RetrievalError(
                f"function type {request.type_id} has no implementation variants"
            )
        if len(request) == 0:
            raise RetrievalError("cannot score a request without constraining attributes")
        return table

    def _signature_kernel(self, table: TypeTable, attribute_ids: Tuple[int, ...]) -> Tuple:
        """Gathered kernel inputs for one ``(type, constrained-IDs)`` signature.

        Serving traffic repeats a few hot signatures, so the per-signature
        gather -- the ``(A, I)`` case-value rows, the ``(A, 1)`` reciprocal
        column and the ``(A, I)`` absent-cell mask (``None`` when every cell
        is present) -- is cached on the type's table (and dropped with it
        on any content change), keyed with the engine's bounds table the
        reciprocals come from.  An attribute no implementation holds reads
        the sentinel row: zeros, all absent, and no reciprocal lookup --
        its placeholder arithmetic is overwritten before use.
        """
        bounds = self.engine.local_similarity.bounds
        kernel = table.kernels.get((attribute_ids, bounds))
        if kernel is not None:
            return kernel
        _, columns = table.locate(attribute_ids)
        held = table.holders[columns]
        reciprocals = np.array(
            [
                self._reciprocal(attribute_id) if count else 0.0
                for attribute_id, count in zip(attribute_ids, held.tolist())
            ],
            dtype=np.float64,
        )[:, None]
        missing_count = len(table.implementations) * len(attribute_ids) - int(held.sum())
        absent = ~table.present[columns] if missing_count else None
        kernel = (table.values[columns], reciprocals, absent, missing_count)
        if len(table.kernels) >= TypeTable.KERNEL_CACHE_CAPACITY:
            table.kernels.clear()
        table.kernels[(attribute_ids, bounds)] = kernel
        return kernel

    def _similarity_rows(
        self,
        table: TypeTable,
        attribute_ids: Tuple[int, ...],
        request_values: np.ndarray,
        weight_rows: np.ndarray,
        rows: Optional[slice] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """Global similarities for a group of same-signature requests.

        ``request_values`` and ``weight_rows`` are ``(B, A)`` arrays; the
        return value is the ``(B, I)`` global-similarity matrix plus the
        per-request ``(missing, compared)`` attribute counts (identical for
        every request in the group, because the signature is shared).
        ``rows`` restricts the evaluation to a run of implementations --
        per row the identical operation sequence on the identical operands,
        hence bit-identical to the full evaluation.

        The arithmetic is the golden scalar computation, operation for
        operation: element-wise ``1 - d * (1/(1+dmax))`` (one tensor op over
        all attributes at once is bit-identical to the per-attribute form),
        clamped, missing cells forced to ``missing_similarity``, and the
        weighted sum folded attribute by attribute in ascending-ID order
        exactly like the scalar ``sum()``.
        """
        local = self.engine.local_similarity
        sub_values, reciprocals, absent, missing_count = self._signature_kernel(
            table, attribute_ids
        )
        if rows is not None:
            sub_values = sub_values[:, rows]
            absent = None if absent is None else absent[:, rows]
        similarities = np.abs(request_values[:, :, None] - sub_values[None, :, :])
        similarities *= reciprocals
        np.subtract(1.0, similarities, out=similarities)
        if local.clamp:
            # clip == minimum(maximum(x, 0), 1); direct ufunc calls skip the
            # np.clip dispatch overhead that dominates single-request batches.
            np.maximum(similarities, 0.0, out=similarities)
            np.minimum(similarities, 1.0, out=similarities)
        if absent is not None:
            similarities[:, absent] = local.missing_similarity
        # One element-wise multiply for all weights at once, then a strictly
        # sequential fold over the attributes in ascending-ID order -- the
        # same additions, in the same order, as the scalar ``sum()``.
        similarities *= weight_rows[:, :, None]
        accumulator = np.zeros(
            (request_values.shape[0], similarities.shape[2]), dtype=np.float64
        )
        for column_index in range(len(attribute_ids)):
            accumulator += similarities[:, column_index]
        compared_count = len(table.implementations) * len(attribute_ids) - missing_count
        return accumulator, missing_count, compared_count

    # -- the bounds pre-filter (two-stage exact retrieval) -------------------------
    #
    # The screen computes, per block of ``TypeTable.BLOCK_ROWS`` rows, a
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
        table: TypeTable,
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
        starts, block_min, block_max, any_present, any_absent = table.block_summaries()
        upper = np.zeros(len(starts), dtype=np.float64)
        columns = table.locate(attribute_ids)[1].tolist()
        for column_index, (attribute_id, column) in enumerate(zip(attribute_ids, columns)):
            weight = weights[column_index]
            if not table.holders[column]:
                # Every cell takes the missing-similarity placeholder exactly.
                upper += local.missing_similarity * weight
                continue
            value = values[column_index]
            # Min distance from the request value to the block's [min, max]
            # interval: 0 inside, else the gap -- computed with the same
            # subtractions the kernel's |v - value_i| resolves to at the
            # interval endpoints, so rounding keeps the bound rigorous.
            distance = np.maximum(block_min[column] - value, value - block_max[column])
            np.maximum(distance, 0.0, out=distance)
            column_upper = 1.0 - distance * self._reciprocal(attribute_id)
            if local.clamp:
                np.maximum(column_upper, 0.0, out=column_upper)
                np.minimum(column_upper, 1.0, out=column_upper)
            # Blocks with no present cell in this column contribute only
            # missing-similarity placeholders; the interval bound is vacuous.
            column_upper[~any_present[column]] = -np.inf
            absent = any_absent[column]
            if absent.any():
                np.maximum(
                    column_upper, local.missing_similarity, out=column_upper, where=absent
                )
            upper += column_upper * weight
        return starts, upper

    def _retrieve_pruned(
        self,
        request: FunctionRequest,
        table: TypeTable,
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
        implementation_count = len(table.implementations)
        *_, missing_count = self._signature_kernel(table, attribute_ids)
        compared = implementation_count * len(attribute_ids) - missing_count
        self._account(statistics, table, attribute_ids, missing_count, compared)
        request_values = np.array([values], dtype=np.float64)
        weight_rows = np.array([weights], dtype=np.float64)
        starts, upper = self._block_upper_bounds(table, attribute_ids, values, weights)
        block = table.BLOCK_ROWS

        #: ``(start, stop, similarities)`` of every evaluated run of rows.
        scored: List[Tuple[int, int, np.ndarray]] = []

        def evaluate(blocks: np.ndarray) -> None:
            """Score the rows of ``blocks``, one slice per run of adjacent
            blocks (a view of the kernel rows, not a gather)."""
            runs: List[List[int]] = []
            for index in sorted(blocks.tolist()):
                if runs and runs[-1][1] == index:
                    runs[-1][1] = index + 1
                else:
                    runs.append([index, index + 1])
            for first, last in runs:
                start, stop = first * block, min(last * block, implementation_count)
                scored.append((start, stop, self._similarity_rows(
                    table, attribute_ids, request_values, weight_rows, slice(start, stop)
                )[0][0]))

        # Stage 1: threshold screening -- a block bounded strictly below the
        # threshold cannot contribute a row reaching it.
        kept = (
            np.flatnonzero(upper >= threshold)
            if threshold is not None
            else np.arange(len(starts), dtype=np.intp)
        )
        if n is not None and len(kept):
            # Stage 2 (n-best): evaluate blocks in descending-bound order
            # until >= n rows are scored; the n-th best qualifying exact
            # similarity then prunes every remaining block bounded strictly
            # below it (the final n-th best can only be higher).
            order = kept[np.argsort(-upper[kept], kind="stable")]
            covered = 0
            seed_count = 0
            for block_index in order.tolist():
                start = block_index * block
                covered += min(start + block, implementation_count) - start
                seed_count += 1
                if covered >= n:
                    break
            evaluate(order[:seed_count])
            seed_sims = np.concatenate([sims for _, _, sims in scored])
            qualifying = (
                seed_sims if threshold is None else seed_sims[seed_sims >= threshold]
            )
            rest = order[seed_count:]
            if len(qualifying) >= n:
                cut = -np.partition(-qualifying, n - 1)[n - 1]
                rest = rest[upper[rest] >= cut]
            if len(rest):
                evaluate(rest)
        elif len(kept):
            evaluate(kept)
        # The runs are disjoint, so ordering them orders the rows.
        scored.sort(key=lambda run: run[0])
        rows = np.concatenate(
            [np.arange(start, stop, dtype=np.intp) for start, stop, _ in scored]
            or [np.zeros(0, dtype=np.intp)]
        )
        similarities = np.concatenate(
            [sims for _, _, sims in scored] or [np.zeros(0, dtype=np.float64)]
        )
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
        implementations = table.implementations
        ranked = [
            ScoredImplementation(request.type_id, implementations[row], similarity)
            for row, similarity in zip(rows[order].tolist(), similarities[order].tolist())
        ]
        statistics.best_updates += len(ranked)
        return RetrievalResult(
            request.type_id, ranked, statistics, threshold=record_threshold
        )

    def _evaluate_one(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> Tuple[TypeTable, np.ndarray]:
        """Similarity row for one request, with statistics accounting."""
        table = self._validate(request)
        attribute_ids, values, weights = request.kernel_inputs()
        request_values = np.array([values], dtype=np.float64)
        weight_rows = np.array([weights], dtype=np.float64)
        similarities, missing, compared = self._similarity_rows(
            table, attribute_ids, request_values, weight_rows
        )
        self._account(statistics, table, attribute_ids, missing, compared)
        return table, similarities[0]

    @staticmethod
    def _account(
        statistics: "RetrievalStatistics",
        table: TypeTable,
        attribute_ids: Tuple[int, ...],
        missing: int,
        compared: int,
    ) -> None:
        """Book the same algorithmic-effort counters the naive loop accumulates."""
        implementation_count = len(table.implementations)
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
        table: TypeTable,
        similarities: np.ndarray,
        index: int,
    ) -> "ScoredImplementation":
        _, _, ScoredImplementation = _result_types()
        return ScoredImplementation(
            type_id=request.type_id,
            implementation=table.implementations[index],
            similarity=float(similarities[index]),
        )

    @staticmethod
    def _ranking_order(table: TypeTable, similarities: np.ndarray) -> np.ndarray:
        """Indices sorted by descending similarity, ascending implementation ID."""
        return np.lexsort((table.impl_ids, -similarities))

    def _best_result(
        self,
        request: FunctionRequest,
        table: TypeTable,
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
        ranked = [self._scored(request, table, similarities, best_index)]
        return RetrievalResult(request.type_id, ranked, statistics)

    def _ranked_result(
        self,
        request: FunctionRequest,
        table: TypeTable,
        similarities: np.ndarray,
        statistics: "RetrievalStatistics",
        *,
        n: Optional[int],
        threshold: Optional[float],
        record_threshold: Optional[float],
    ) -> "RetrievalResult":
        """Build a ranked result: the threshold filter, then the ``n`` cut."""
        RetrievalResult, _, _ = _result_types()
        order = self._ranking_order(table, similarities)
        if threshold is not None:
            order = order[similarities[order] >= threshold]
        if n is not None:
            order = order[:n]
        ranked = [
            self._scored(request, table, similarities, int(index)) for index in order
        ]
        statistics.best_updates += len(ranked)
        return RetrievalResult(
            request.type_id, ranked, statistics, threshold=record_threshold
        )

    # -- RetrievalBackend interface -------------------------------------------------

    def score_all(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> List["ScoredImplementation"]:
        table, similarities = self._evaluate_one(request, statistics)
        return [
            self._scored(request, table, similarities, index)
            for index in range(len(table.implementations))
        ]

    def retrieve_best(self, request: FunctionRequest) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        statistics = RetrievalStatistics()
        table, similarities = self._evaluate_one(request, statistics)
        return self._best_result(request, table, similarities, statistics)

    def retrieve_n_best(self, request: FunctionRequest, n: int) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        _check_n(n)
        statistics = RetrievalStatistics()
        if self._prefilter_active():
            table = self._validate(request)
            if len(table.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                return self._retrieve_pruned(
                    request, table, attribute_ids, values, weights, statistics,
                    n=n, threshold=None, record_threshold=None,
                )
        table, similarities = self._evaluate_one(request, statistics)
        return self._ranked_result(
            request, table, similarities, statistics,
            n=n, threshold=None, record_threshold=None,
        )

    def retrieve_above_threshold(
        self, request: FunctionRequest, threshold: float
    ) -> "RetrievalResult":
        _, RetrievalStatistics, _ = _result_types()
        _check_threshold(threshold)
        statistics = RetrievalStatistics()
        if self._prefilter_active():
            table = self._validate(request)
            if len(table.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                return self._retrieve_pruned(
                    request, table, attribute_ids, values, weights, statistics,
                    n=None, threshold=threshold, record_threshold=threshold,
                )
        table, similarities = self._evaluate_one(request, statistics)
        return self._ranked_result(
            request, table, similarities, statistics,
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
            table = self._validate(request)
            if len(table.implementations) >= self.PREFILTER_MIN_ROWS:
                attribute_ids, values, weights = request.kernel_inputs()
                # Surface kernel-level scoring errors (e.g. a bounds-table
                # gap) before the mode-argument checks, mirroring the
                # unpruned path's evaluate-then-validate order.
                self._signature_kernel(table, attribute_ids)
                if threshold is not None:
                    _check_threshold(threshold)
                if n is not None:
                    _check_n(n)
                return self._retrieve_pruned(
                    request, table, attribute_ids, values, weights, statistics,
                    n=n, threshold=threshold, record_threshold=threshold,
                )
        table, similarities = self._evaluate_one(request, statistics)
        # Validation order mirrors the naive combined entry point (arguments
        # are checked only after scoring).
        if threshold is not None:
            _check_threshold(threshold)
        if n is not None:
            _check_n(n)
        return self._ranked_result(
            request, table, similarities, statistics,
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
        type table in a single broadcast pass; weights may
        differ freely within a group.

        Error-ordering caveat: scoring errors only detectable inside the
        kernel (e.g. a constrained attribute missing from the bounds table)
        surface during group evaluation, *after* the mode-argument checks --
        whereas the sequential naive loop scores request 0 completely before
        validating ``n``/``threshold``.  For batches that are erroneous in
        both ways at once the two backends may therefore raise different
        (equally valid) ``RetrievalError``\\ s.
        """
        RetrievalResult, RetrievalStatistics, ScoredImplementation = _result_types()
        requests = list(requests)
        # Validate in request order: request 0's structural and weight checks,
        # then the mode arguments, then the remaining requests.  (Scoring
        # errors only detectable inside the kernel -- e.g. a bounds-table gap
        # -- surface later, during group evaluation.)
        self.engine.case_base.type_tables.tracker.ensure_current()  # once per batch
        groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        tables_by_request: List[TypeTable] = []
        kernel_inputs_by_request: List[Tuple] = []
        for index, request in enumerate(requests):
            table = self._validate(request, current=True)
            kernel_inputs_by_request.append(request.kernel_inputs())
            if index == 0:
                if threshold is not None:
                    _check_threshold(threshold)
                if n is not None:
                    _check_n(n)
            tables_by_request.append(table)
            key = (request.type_id, kernel_inputs_by_request[index][0])
            groups.setdefault(key, []).append(index)
        results: List[Optional["RetrievalResult"]] = [None] * len(requests)
        prefilter = self._prefilter_active() and not (n is None and threshold is None)
        for (type_id, attribute_ids), member_indices in groups.items():
            table = tables_by_request[member_indices[0]]
            if prefilter and len(table.implementations) >= self.PREFILTER_MIN_ROWS:
                # Huge types: per-request block pruning beats the grouped
                # full-matrix broadcast.  Statistics stay the group-constant
                # full-scan counters, booked inside the pruned path.
                for index in member_indices:
                    request = requests[index]
                    statistics = RetrievalStatistics()
                    _, values, weights = kernel_inputs_by_request[index]
                    results[index] = self._retrieve_pruned(
                        request, table, attribute_ids, values, weights, statistics,
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
                table, attribute_ids, request_values, weight_rows
            )
            implementations = table.implementations
            implementation_count = len(implementations)
            ranked_rows = None
            if n is not None or threshold is not None:
                # One stable sort for the whole group: descending similarity
                # with ties in row-index order, which is ascending
                # implementation ID by construction -- exactly the
                # per-request lexsort of :meth:`_ranking_order`.
                orders = np.argsort(-similarity_rows, axis=1, kind="stable")
                # Each row ranks its prefix reaching the threshold, cut to n;
                # the group gathers it into Python lists once, not per request.
                width = min(n or implementation_count, implementation_count)
                lengths = [width] * len(member_indices)
                if threshold is not None:
                    reaching = (similarity_rows >= threshold).sum(axis=1)
                    lengths = np.minimum(reaching, width).tolist()
                    width = max(lengths)
                top = orders[:, :width]
                rows = np.arange(len(member_indices))[:, None]
                ranked_rows = zip(
                    top.tolist(), similarity_rows[rows, top].tolist(), lengths
                )
            # Group-constant effort counters (see :meth:`_account`), built
            # directly into each request's statistics record.
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
                if ranked_rows is None:
                    results[index] = self._best_result(
                        request, table, similarity_rows[row], statistics
                    )
                    continue
                row_indices, row_similarities, length = next(ranked_rows)
                ranked = [
                    ScoredImplementation(type_id, implementations[i], similarity)
                    for i, similarity in zip(
                        row_indices[:length], row_similarities[:length]
                    )
                ]
                statistics.best_updates += len(ranked)
                results[index] = RetrievalResult(
                    type_id, ranked, statistics, threshold=threshold
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
