"""CBR retrieval over the case base (paper section 3 and Fig. 6).

The retrieval engine implements the reference ("golden") algorithm in floating
point; the cycle-accurate hardware model (:mod:`repro.hardware`) and the
software cost model (:mod:`repro.software`) execute the same algorithm on the
memory-mapped encoding and are validated against this engine.

Supported retrieval modes:

* :meth:`RetrievalEngine.retrieve_best` -- the most-similar implementation, as
  implemented in the paper's hardware unit;
* :meth:`RetrievalEngine.retrieve_n_best` -- the "n most similar solutions"
  extension announced in the paper's outlook (section 5);
* :meth:`RetrievalEngine.retrieve_above_threshold` -- all variants whose global
  similarity reaches a threshold ("it's conceivable to reject all results below
  a given threshold similarity", section 3);
* :meth:`RetrievalEngine.retrieve_batch` -- evaluate a whole batch of requests
  in one call, letting the vectorized backend amortise its matrix setup over
  many requests (the online-reconfiguration workload of section 4.1).

The *execution strategy* behind these modes is pluggable: the engine delegates
to a :class:`~repro.core.backends.RetrievalBackend` (the original pure-Python
loop, or the NumPy-vectorized batch kernel) selected via the ``backend``
constructor argument.  All backends are differentially tested to produce
bit-identical rankings, similarities and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .amalgamation import AmalgamationFunction, WeightedSum
from .attributes import BoundsTable
from .case_base import CaseBase, Implementation
from .exceptions import RetrievalError
from .request import FunctionRequest
from .similarity import LocalSimilarity, LocalSimilarityValue


@dataclass
class RetrievalStatistics:
    """Operation counts of one retrieval run.

    These counters describe the *algorithmic* effort (independent of the
    execution substrate) and are used by tests to check the linear-search
    argument of section 4.1 and by the cost models as a cross-check.
    """

    implementations_visited: int = 0
    attributes_requested: int = 0
    attribute_lookups: int = 0
    attribute_compares: int = 0
    missing_attributes: int = 0
    multiplications: int = 0
    best_updates: int = 0


@dataclass(frozen=True)
class ScoredImplementation:
    """One implementation variant together with its global similarity."""

    type_id: int
    implementation: Implementation
    similarity: float
    local_similarities: Tuple[LocalSimilarityValue, ...] = ()

    @property
    def implementation_id(self) -> int:
        """Shortcut to the variant's implementation ID."""
        return self.implementation.implementation_id


@dataclass
class RetrievalResult:
    """Result of one retrieval run."""

    request_type_id: int
    ranked: List[ScoredImplementation]
    statistics: RetrievalStatistics = field(default_factory=RetrievalStatistics)
    threshold: Optional[float] = None

    @property
    def best(self) -> Optional[ScoredImplementation]:
        """The most similar implementation, or ``None`` if nothing qualified."""
        return self.ranked[0] if self.ranked else None

    @property
    def best_id(self) -> Optional[int]:
        """Implementation ID of the best match (``None`` if nothing qualified)."""
        return self.ranked[0].implementation_id if self.ranked else None

    @property
    def best_similarity(self) -> Optional[float]:
        """Global similarity of the best match (``None`` if nothing qualified)."""
        return self.ranked[0].similarity if self.ranked else None

    def ids(self) -> List[int]:
        """Implementation IDs in ranked order."""
        return [entry.implementation_id for entry in self.ranked]

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ranked)


class RetrievalEngine:
    """Reference retrieval engine operating directly on :class:`CaseBase` objects.

    Parameters
    ----------
    case_base:
        The function-implementation tree to query.
    bounds:
        Design-global bounds table; defaults to the case base's own table.
    amalgamation:
        The global-similarity amalgamation function; defaults to the weighted
        sum of eq. 2.
    local_similarity:
        Local similarity measure; defaults to the eq. 1 measure with Manhattan
        distance over ``bounds``.
    backend:
        Execution strategy: a backend name (``"naive"``/``"reference"`` for the
        per-implementation loop, ``"vectorized"`` for the NumPy batch kernel)
        or a :class:`~repro.core.backends.RetrievalBackend` instance.  A
        ``"vectorized"`` selection falls back to the naive loop when the
        similarity configuration cannot be vectorized (custom amalgamation,
        metric or local-similarity subclass); check :attr:`backend_name` for
        the effective choice.
    prefilter:
        Two-stage retrieval screen: ``"off"`` (default) evaluates every
        implementation, ``"bounds"`` lets the vectorized backend prune whole
        row blocks through a rigorous per-block similarity upper bound before
        the exact kernel re-ranks the survivors.  The pruned path is proven
        bit-identical (rankings, similarity doubles, statistics) to the full
        scan; it transparently falls through for best-mode retrieval, small
        types, and backends without a screen (the naive loop).
    """

    #: Valid ``prefilter`` axis values.
    PREFILTERS = ("off", "bounds")

    def __init__(
        self,
        case_base: CaseBase,
        *,
        bounds: Optional[BoundsTable] = None,
        amalgamation: Optional[AmalgamationFunction] = None,
        local_similarity: Optional[LocalSimilarity] = None,
        backend: Union[str, "RetrievalBackend", None] = None,
        prefilter: Optional[str] = None,
    ) -> None:
        self.case_base = case_base
        self.bounds = bounds if bounds is not None else case_base.bounds
        self.amalgamation = amalgamation if amalgamation is not None else WeightedSum()
        self.local_similarity = (
            local_similarity
            if local_similarity is not None
            else LocalSimilarity(self.bounds)
        )
        prefilter = prefilter if prefilter is not None else "off"
        if prefilter not in self.PREFILTERS:
            raise RetrievalError(
                f"unknown prefilter {prefilter!r}; known: {list(self.PREFILTERS)}"
            )
        self.prefilter = prefilter
        from .backends import resolve_backend

        self.backend = resolve_backend(backend, self)

    @property
    def backend_name(self) -> str:
        """Name of the effective execution backend (after any fallback)."""
        return self.backend.name

    def invalidate_cache(self) -> None:
        """Drop state derived from the case base, for every consumer of it.

        The backend's caches go, and so does the case base's shared columnar
        image with its encoded CB-MEM words.  Structural case-base changes (everything going through
        :class:`CaseBase`'s mutators, including the learning cycle's revise and
        retain steps) are detected automatically via the revision counter; this
        hook is only needed after mutating implementation objects in place.
        """
        self.backend.invalidate()

    # -- scoring -----------------------------------------------------------------

    def score(
        self,
        request: FunctionRequest,
        implementation: Implementation,
        statistics: Optional[RetrievalStatistics] = None,
    ) -> ScoredImplementation:
        """Global similarity of one implementation against the request."""
        if len(request) == 0:
            raise RetrievalError("cannot score a request without constraining attributes")
        statistics = statistics if statistics is not None else RetrievalStatistics()
        statistics.implementations_visited += 1
        local_values: List[LocalSimilarityValue] = []
        similarities: List[float] = []
        weights: List[float] = []
        for attribute in request.sorted_attributes():
            statistics.attributes_requested += 1
            case_value = implementation.get(attribute.attribute_id)
            statistics.attribute_lookups += 1
            if case_value is None:
                statistics.missing_attributes += 1
            else:
                statistics.attribute_compares += 1
                statistics.multiplications += 1
            local = self.local_similarity.similarity(
                attribute.attribute_id, attribute.value, case_value
            )
            local_values.append(local)
            similarities.append(local.similarity)
            weights.append(attribute.weight)
        global_similarity = self.amalgamation.combine(similarities, weights)
        return ScoredImplementation(
            type_id=request.type_id,
            implementation=implementation,
            similarity=global_similarity,
            local_similarities=tuple(local_values),
        )

    def score_all(
        self, request: FunctionRequest, statistics: Optional[RetrievalStatistics] = None
    ) -> List[ScoredImplementation]:
        """Score every implementation variant of the requested function type.

        Delegated to the execution backend; the vectorized backend returns
        entries without per-attribute local-similarity breakdowns (use
        :meth:`score` for the detailed view of a single variant).
        """
        statistics = statistics if statistics is not None else RetrievalStatistics()
        return self.backend.score_all(request, statistics)

    # -- retrieval modes (delegated to the execution backend) ----------------------

    def retrieve_best(self, request: FunctionRequest) -> RetrievalResult:
        """Return the single most similar implementation (paper Fig. 6).

        Ties are broken in favour of the implementation visited first (lowest
        implementation ID), matching the strict ``S > S_best`` update rule of
        the hardware algorithm.
        """
        return self.backend.retrieve_best(request)

    def retrieve_n_best(self, request: FunctionRequest, n: int) -> RetrievalResult:
        """Return the ``n`` most similar implementations (section 5 extension).

        The ranking is stable: equal similarities keep ascending implementation
        ID order.
        """
        return self.backend.retrieve_n_best(request, n)

    def retrieve_above_threshold(
        self, request: FunctionRequest, threshold: float
    ) -> RetrievalResult:
        """Return all implementations whose similarity reaches ``threshold``."""
        return self.backend.retrieve_above_threshold(request, threshold)

    def retrieve(
        self,
        request: FunctionRequest,
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> RetrievalResult:
        """Combined entry point: optional n-best cut and threshold rejection."""
        return self.backend.retrieve(request, n=n, threshold=threshold)

    def retrieve_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List[RetrievalResult]:
        """Evaluate a batch of requests; result ``i`` belongs to request ``i``.

        Per-request semantics, errors included, match :meth:`retrieve`.  The
        vectorized backend groups requests by function type and evaluates
        each group as one padded matrix pass, which is where the batch API's
        speedup comes from; the naive backend simply loops, which the
        differential test suite uses as the oracle.
        """
        return self.backend.retrieve_batch(requests, n=n, threshold=threshold)
