"""Pluggable execution backends for the reference retrieval engine.

The paper's section-4.1 analysis argues that linear-search retrieval is the
hot path of the allocation manager; this module provides interchangeable
execution strategies for that path:

* :class:`NaiveBackend` -- the original pure-Python loop over
  :meth:`RetrievalEngine.score`, one implementation at a time.  It is the
  golden reference: every other backend must reproduce its rankings,
  similarities, :class:`~repro.core.retrieval.RetrievalStatistics` and
  errors (raised in the same order) bit for bit.
* :class:`VectorizedBackend` -- a software-vectorization data point for the
  section-4.1 cost argument.  It reads the case base's one columnar image
  (:class:`~repro.core.columnar.TypeTables`: per function type a dense
  attribute table in ascending attribute-ID order) with the paper's
  ``1 / (1 + dmax)`` reciprocals gathered per column (exactly the
  supplemental-list trick of the hardware unit, Fig. 4 right), and
  evaluates whole *batches* of requests as array operations, one padded
  pass per function type.

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

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .amalgamation import WeightedSum
from .columnar import PAD_BLOCK, TypeTable
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


class _Padded(NamedTuple):
    """One type's requests left-padded to the widest (``R`` slots); a padded
    slot holds :data:`~repro.core.columnar.PAD_BLOCK`."""

    columns: np.ndarray  # (b, R) table column per slot (padding: the sentinel)
    values: np.ndarray  # (b, R) request values
    weights: np.ndarray  # (b, R) normalised weights
    lengths: List[int]  # the requests' own attribute counts
    compared: List[int]  # present (implementation, attribute) pairs per request
    masked: bool  # whether any requested cell is absent


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

    Every mode is :meth:`retrieve_batch` over one request, after the
    argument checks the naive modes make before scoring.
    """

    name = "vectorized"

    #: Smallest implementation count worth screening: below a few blocks the
    #: bound computation costs more than the full evaluation it would save,
    #: so the pre-filter transparently falls through to the plain kernel.
    PREFILTER_MIN_ROWS = 4096

    def __init__(self) -> None:
        super().__init__()
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

    # -- validation ----------------------------------------------------------------

    def _validate(
        self, request: FunctionRequest, *, current: bool = False
    ) -> Tuple[TypeTable, Tuple]:
        """Mirror the error behaviour of the naive scoring path, in its order.

        Returns the type's table and the request's kernel inputs.  The naive
        loop scores implementation by implementation, looking ``dmax`` up for
        each attribute the implementation holds, so a missing bounds entry is
        raised for the first row holding an unbounded requested attribute, on
        its lowest such ID; attributes no implementation holds never reach
        the bounds table.
        """
        table = self.engine.case_base.type_tables.table(request.type_id, current=current)
        if len(table.implementations) == 0:
            raise RetrievalError(
                f"function type {request.type_id} has no implementation variants"
            )
        if len(request) == 0:
            raise RetrievalError("cannot score a request without constraining attributes")
        inputs = request.kernel_inputs()
        bounds = self.engine.local_similarity.bounds
        while True:
            gaps = table.reciprocals(bounds)[1]
            unbounded = [a for a in inputs[0] if a in gaps] if gaps else None
            if not unbounded:
                return table, inputs
            present = table.present[table.locate(unbounded)[1]]
            row = int(present.any(axis=0).argmax())
            bounds.get(unbounded[int(present[:, row].argmax())])
            table.factors = None  # the entry was added since: rebuild the vector

    # -- the vectorized kernel ----------------------------------------------------

    @staticmethod
    def _pad(table: TypeTable, inputs: Sequence[Tuple]) -> _Padded:
        """Left-pad one type's requests (their kernel inputs) to the widest."""
        lengths = [len(ids) for ids, _, _ in inputs]
        width = max(lengths)
        slots = [width - length for length in lengths]
        pad_id, pad_value, pad_weight = PAD_BLOCK
        ids = np.array(
            [(pad_id,) * pad + row[0] for pad, row in zip(slots, inputs)], dtype=np.int64
        )
        values = np.array(
            [(pad_value,) * pad + row[1] for pad, row in zip(slots, inputs)],
            dtype=np.float64,
        )
        weights = np.array(
            [(pad_weight,) * pad + row[2] for pad, row in zip(slots, inputs)],
            dtype=np.float64,
        )
        columns = table.locate(ids)[1]
        compared = table.holders[columns].sum(axis=1).tolist()
        masked = sum(compared) < len(table.implementations) * sum(lengths)
        return _Padded(columns, values, weights, lengths, compared, masked)

    def _similarities(
        self, table: TypeTable, padded: _Padded, rows: slice = slice(None)
    ) -> np.ndarray:
        """``(b, I)`` global similarities of one type's padded requests.

        ``rows`` restricts the evaluation to a run of implementations -- per
        row the identical operation sequence on the identical operands, hence
        bit-identical to the full evaluation.

        The arithmetic is the golden scalar computation, operation for
        operation: element-wise ``1 - d * (1/(1+dmax))`` (one tensor op over
        all attributes at once is bit-identical to the per-attribute form),
        clamped, missing cells forced to ``missing_similarity``, and the
        weighted sum folded slot by slot.  Padding comes first and adds exact
        zeros (its sentinel cell scores ``1 - 0 * 0``, or the missing
        similarity, times weight 0), then the real attributes follow in
        ascending-ID order exactly like the scalar ``sum()``.
        """
        local = self.engine.local_similarity
        factors = table.reciprocals(local.bounds)[0]
        columns = padded.columns
        cells = np.abs(padded.values[:, :, None] - table.values[columns, rows])
        cells *= factors[columns][:, :, None]
        np.subtract(1.0, cells, out=cells)
        if local.clamp:
            # clip == minimum(maximum(x, 0), 1); direct ufunc calls skip the
            # np.clip dispatch overhead that dominates single-request batches.
            np.maximum(cells, 0.0, out=cells)
            np.minimum(cells, 1.0, out=cells)
        if padded.masked:
            np.copyto(cells, local.missing_similarity, where=~table.present[columns, rows])
        # One element-wise multiply for all weights at once, then a strictly
        # sequential fold over the slots.
        cells *= padded.weights[:, :, None]
        accumulator = np.zeros((cells.shape[0], cells.shape[2]), dtype=np.float64)
        for slot in range(cells.shape[1]):
            accumulator += cells[:, slot]
        return accumulator

    @staticmethod
    def _account(
        statistics: "RetrievalStatistics",
        table: TypeTable,
        attribute_count: int,
        compared: int,
    ) -> None:
        """Book the same algorithmic-effort counters the naive loop accumulates."""
        pairs = len(table.implementations) * attribute_count
        statistics.implementations_visited += len(table.implementations)
        statistics.attributes_requested += pairs
        statistics.attribute_lookups += pairs
        statistics.missing_attributes += pairs - compared
        statistics.attribute_compares += compared
        statistics.multiplications += compared

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
        columns: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, bounds)``: a per-block upper bound on the row similarities
        of one request (its ``(R,)`` columns, values and weights).

        Weights are guaranteed non-negative (``RequestAttribute`` rejects
        negative weights), so multiplying a per-cell upper bound by the
        weight keeps it an upper bound.
        """
        local = self.engine.local_similarity
        factors = table.reciprocals(local.bounds)[0]
        starts, block_min, block_max, any_present, any_absent = table.block_summaries()
        upper = np.zeros(len(starts), dtype=np.float64)
        for column, value, weight in zip(columns.tolist(), values.tolist(), weights.tolist()):
            if not table.holders[column]:
                # Every cell takes the missing-similarity placeholder exactly.
                upper += local.missing_similarity * weight
                continue
            # Min distance from the request value to the block's [min, max]
            # interval: 0 inside, else the gap -- computed with the same
            # subtractions the kernel's |v - value_i| resolves to at the
            # interval endpoints, so rounding keeps the bound rigorous.
            distance = np.maximum(block_min[column] - value, value - block_max[column])
            np.maximum(distance, 0.0, out=distance)
            column_upper = 1.0 - distance * factors[column]
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
        inputs: Tuple,
        *,
        n: Optional[int],
        threshold: Optional[float],
    ) -> "RetrievalResult":
        """Two-stage ranked retrieval: screen blocks, evaluate survivors exactly.

        ``n``/``threshold`` must already be validated; best-mode retrieval
        (``n is None and threshold is None``) never reaches this path because
        its ``best_updates`` counter is defined over the full scan order.
        """
        RetrievalResult, RetrievalStatistics, ScoredImplementation = _result_types()
        implementation_count = len(table.implementations)
        padded = self._pad(table, [inputs])
        statistics = RetrievalStatistics()
        self._account(statistics, table, padded.lengths[0], padded.compared[0])
        starts, upper = self._block_upper_bounds(
            table, padded.columns[0], padded.values[0], padded.weights[0]
        )
        block = table.BLOCK_ROWS

        #: ``(start, stop, similarities)`` of every evaluated run of rows.
        scored: List[Tuple[int, int, np.ndarray]] = []

        def evaluate(blocks: np.ndarray) -> None:
            """Score the rows of ``blocks``, one row slice of the table per
            run of adjacent blocks."""
            runs: List[List[int]] = []
            for index in sorted(blocks.tolist()):
                if runs and runs[-1][1] == index:
                    runs[-1][1] = index + 1
                else:
                    runs.append([index, index + 1])
            for first, last in runs:
                start, stop = first * block, min(last * block, implementation_count)
                scored.append((start, stop, self._similarities(
                    table, padded, slice(start, stop)
                )[0]))

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
        # descending-similarity sort reproduces the full path's ranking ties.
        order = np.argsort(-similarities, kind="stable")
        if threshold is not None:
            order = order[similarities[order] >= threshold]
        if n is not None:
            order = order[:n]
        implementations = table.implementations
        ranked = [
            ScoredImplementation(request.type_id, implementations[row], similarity)
            for row, similarity in zip(rows[order].tolist(), similarities[order].tolist())
        ]
        statistics.best_updates += len(ranked)
        return RetrievalResult(request.type_id, ranked, statistics, threshold=threshold)

    # -- RetrievalBackend interface -------------------------------------------------

    def score_all(
        self, request: FunctionRequest, statistics: "RetrievalStatistics"
    ) -> List["ScoredImplementation"]:
        _, _, ScoredImplementation = _result_types()
        table, inputs = self._validate(request)
        padded = self._pad(table, [inputs])
        similarities = self._similarities(table, padded)[0]
        self._account(statistics, table, padded.lengths[0], padded.compared[0])
        return [
            ScoredImplementation(request.type_id, implementation, similarity)
            for implementation, similarity in zip(
                table.implementations, similarities.tolist()
            )
        ]

    def retrieve_best(self, request: FunctionRequest) -> "RetrievalResult":
        return self.retrieve_batch([request])[0]

    def retrieve_n_best(self, request: FunctionRequest, n: int) -> "RetrievalResult":
        _check_n(n)
        return self.retrieve_batch([request], n=n)[0]

    def retrieve_above_threshold(
        self, request: FunctionRequest, threshold: float
    ) -> "RetrievalResult":
        _check_threshold(threshold)
        return self.retrieve_batch([request], threshold=threshold)[0]

    def retrieve(
        self,
        request: FunctionRequest,
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> "RetrievalResult":
        return self.retrieve_batch([request], n=n, threshold=threshold)[0]

    def retrieve_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List["RetrievalResult"]:
        """Per-type matrix evaluation of a whole request batch.

        The requests of one function type are left-padded to the widest and
        evaluated against the type table in one ``(b, R, I)`` pass, whatever
        attributes, values and weights each names.  Huge types under the
        bounds pre-filter are ranked request by request instead.

        Errors surface in the order of the sequential naive loop: each
        request is validated in turn (its bounds entries included), and the
        mode arguments right after request 0.
        """
        RetrievalResult, RetrievalStatistics, ScoredImplementation = _result_types()
        requests = list(requests)
        self.engine.case_base.type_tables.tracker.ensure_current()  # once per batch
        groups: Dict[int, Tuple[TypeTable, List[int]]] = {}
        inputs: List[Tuple] = []
        for index, request in enumerate(requests):
            table, request_inputs = self._validate(request, current=True)
            inputs.append(request_inputs)
            if index == 0:
                if threshold is not None:
                    _check_threshold(threshold)
                if n is not None:
                    _check_n(n)
            group = groups.get(request.type_id)
            if group is None:
                group = groups[request.type_id] = (table, [])
            group[1].append(index)
        results: List[Optional["RetrievalResult"]] = [None] * len(requests)
        prefilter = self._prefilter_active() and not (n is None and threshold is None)
        for table, member_indices in groups.values():
            if prefilter and len(table.implementations) >= self.PREFILTER_MIN_ROWS:
                # Huge types: per-request block pruning beats the full-matrix
                # pass.
                for index in member_indices:
                    results[index] = self._retrieve_pruned(
                        requests[index], table, inputs[index], n=n, threshold=threshold
                    )
                continue
            implementations = table.implementations
            implementation_count = len(implementations)
            padded = self._pad(table, [inputs[index] for index in member_indices])
            similarity_rows = self._similarities(table, padded)
            ranked_rows = None
            if n is not None or threshold is not None:
                # One stable sort for the whole group: descending similarity
                # with ties in row-index order, which is ascending
                # implementation ID by construction.
                orders = np.argsort(-similarity_rows, axis=1, kind="stable")
                # Each row ranks its prefix reaching the threshold, cut to n;
                # the group gathers it into Python lists once, not per request.
                width = min(n or implementation_count, implementation_count)
                cuts = [width] * len(member_indices)
                if threshold is not None:
                    reaching = (similarity_rows >= threshold).sum(axis=1)
                    cuts = np.minimum(reaching, width).tolist()
                    width = max(cuts)
                top = orders[:, :width]
                rows = np.arange(len(member_indices))[:, None]
                ranked_rows = zip(
                    top.tolist(), similarity_rows[rows, top].tolist(), cuts
                )
            for row, index in enumerate(member_indices):
                request = requests[index]
                statistics = RetrievalStatistics()
                self._account(statistics, table, padded.lengths[row], padded.compared[row])
                if ranked_rows is None:
                    results[index] = self._best_result(
                        request, table, similarity_rows[row], statistics
                    )
                    continue
                row_indices, row_similarities, cut = next(ranked_rows)
                ranked = [
                    ScoredImplementation(request.type_id, implementations[i], similarity)
                    for i, similarity in zip(row_indices[:cut], row_similarities[:cut])
                ]
                statistics.best_updates += len(ranked)
                results[index] = RetrievalResult(
                    request.type_id, ranked, statistics, threshold=threshold
                )
        return results

    @staticmethod
    def _best_result(
        request: FunctionRequest,
        table: TypeTable,
        similarities: np.ndarray,
        statistics: "RetrievalStatistics",
    ) -> "RetrievalResult":
        RetrievalResult, _, ScoredImplementation = _result_types()
        # The hardware's strict S > S_best update rule: count prefix maxima so
        # the best_updates counter matches the sequential scan exactly.
        running = np.maximum.accumulate(similarities)
        statistics.best_updates += 1 + int(
            np.count_nonzero(similarities[1:] > running[:-1])
        )
        best_index = int(np.argmax(similarities))
        ranked = [ScoredImplementation(
            request.type_id, table.implementations[best_index],
            float(similarities[best_index]),
        )]
        return RetrievalResult(request.type_id, ranked, statistics)


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
