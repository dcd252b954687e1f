"""Property tests: two-stage pruned retrieval is bit-identical to the full scan.

The ``prefilter="bounds"`` axis lets the vectorized backend skip whole row
blocks whose similarity upper bound cannot reach the current cut.  Its
correctness contract is *bit-identity*: rankings, similarity doubles and
retrieval statistics must equal the unpruned vectorized scan (full view,
including empty local-similarity tuples) and the naive golden loop (ids,
similarities and statistics; the naive path additionally carries
per-attribute breakdowns the vectorized kernel never materialises).

The suite shrinks ``TypeTable.BLOCK_ROWS`` / ``PREFILTER_MIN_ROWS`` so
the screen engages on test-sized case bases, checks every retrieval mode
and the batch path across the backend x prefilter axes -- under the
paper's local similarity and under one with ``missing_similarity=0.25``
and no clamp, with same-type requests of one and of every attribute and
an attribute ID no implementation holds -- and proves non-vacuity on a
locality-structured case base where the screen demonstrably prunes (uniform
random columns give every block a full-range bound, which never prunes --
the counters keep that honest).

Uses hypothesis when available and a seeded parametrized sweep otherwise,
mirroring the other property suites.
"""

import contextlib

import pytest

from repro.core import LocalSimilarity, RetrievalEngine
from repro.core.attributes import AttributeSchema, BoundsTable
from repro.core.backends import VectorizedBackend
from repro.core.columnar import TypeTable
from repro.core.case_base import CaseBase, ExecutionTarget, Implementation
from repro.core.request import FunctionRequest
from repro.tools import CaseBaseGenerator, GeneratorSpec

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


#: Deep enough per type that shrunken thresholds engage the screen.
SPEC = GeneratorSpec(
    type_count=3,
    implementations_per_type=48,
    attributes_per_implementation=5,
    attribute_type_count=8,
    missing_probability=0.2,
)


@contextlib.contextmanager
def small_blocks():
    """Shrink the engagement thresholds so test-sized case bases screen."""
    saved = (TypeTable.BLOCK_ROWS, VectorizedBackend.PREFILTER_MIN_ROWS)
    TypeTable.BLOCK_ROWS = 8
    VectorizedBackend.PREFILTER_MIN_ROWS = 16
    try:
        yield
    finally:
        TypeTable.BLOCK_ROWS, VectorizedBackend.PREFILTER_MIN_ROWS = saved


def _full_view(result):
    """Everything the vectorized backend reports, per ranked entry."""
    return [
        (entry.implementation_id, entry.similarity, entry.local_similarities)
        for entry in result.ranked
    ]


def _slim_view(result):
    """The cross-backend comparable view (naive adds local breakdowns)."""
    return [(entry.implementation_id, entry.similarity) for entry in result.ranked]


def check_pruned_equals_unpruned(seed: int, salt: int, n: int, threshold: float) -> None:
    """Pruned vs unpruned vectorized: full view, statistics, all modes."""
    generator = CaseBaseGenerator(SPEC, seed=seed % 50)
    case_base = generator.case_base()
    request = generator.request(salt=salt, attribute_count=4)
    with small_blocks():
        off = RetrievalEngine(case_base, backend="vectorized", prefilter="off")
        on = RetrievalEngine(case_base, backend="vectorized", prefilter="bounds")

        for mode in (
            lambda engine: engine.retrieve_n_best(request, n),
            lambda engine: engine.retrieve_above_threshold(request, threshold),
            lambda engine: engine.retrieve_best(request),
        ):
            expected, pruned = mode(off), mode(on)
            assert _full_view(pruned) == _full_view(expected)
            assert pruned.statistics == expected.statistics
        # The screen engaged (it saw every row of the requested type) even
        # when the loose random bounds let nothing be pruned.
        assert on.backend.prefilter_requests > 0
        assert on.backend.prefilter_rows_total > 0
        assert off.backend.prefilter_requests == 0


#: The paper's local similarity, and one where absent cells score 0.25 and
#: distances beyond ``dmax`` go negative.
LOCAL_SIMILARITIES = [{}, {"missing_similarity": 0.25, "clamp": False}]


def make_engine(case_base, backend, prefilter="off", similarity=None):
    return RetrievalEngine(
        case_base,
        backend=backend,
        prefilter=prefilter,
        local_similarity=LocalSimilarity(case_base.bounds, **(similarity or {})),
    )


def widened_requests(generator, salt: int):
    """Same-type requests of one attribute and of every attribute, each
    again with an extra attribute ID that no implementation holds, the wide
    one with values far beyond the bounds."""
    low, high = SPEC.value_range
    unheld = (SPEC.attribute_type_count + 1, low, 1.0)
    type_id = 1 + salt % SPEC.type_count
    narrow = generator.request(type_id, 1, salt=salt)
    wide = generator.request(type_id, SPEC.attribute_type_count, salt=salt)
    far = [
        (attribute.attribute_id, attribute.value + 3 * (high - low), attribute.weight)
        for attribute in wide.sorted_attributes()
    ]
    near = [(a.attribute_id, a.value, a.weight) for a in narrow.sorted_attributes()]
    return [
        narrow,
        wide,
        FunctionRequest(type_id, near + [unheld]),
        FunctionRequest(type_id, far + [unheld]),
    ]


def _exact_view(result):
    """The cross-backend view with each double down to its sign bit."""
    return [(entry.implementation_id, entry.similarity.hex()) for entry in result.ranked]


def check_pruned_equals_naive(seed: int, salt: int, n: int) -> None:
    """Pruned vectorized vs the naive golden loop: ids, similarities, stats."""
    generator = CaseBaseGenerator(SPEC, seed=seed % 50)
    case_base = generator.case_base()
    requests = [generator.request(salt=salt, attribute_count=4)]
    requests += widened_requests(generator, salt)
    modes = (
        lambda engine, request: engine.retrieve_n_best(request, n),
        lambda engine, request: engine.retrieve_above_threshold(request, 0.5),
        lambda engine, request: engine.retrieve(request, n=n, threshold=0.25),
    )
    with small_blocks():
        for similarity in LOCAL_SIMILARITIES:
            naive = make_engine(case_base, "naive", similarity=similarity)
            pruned = make_engine(case_base, "vectorized", "bounds", similarity)
            for mode in modes:
                for request in requests:
                    expected, observed = mode(naive, request), mode(pruned, request)
                    assert _exact_view(observed) == _exact_view(expected)
                    assert observed.statistics == expected.statistics


def check_batch_prefilter(seed: int, backend: str) -> None:
    """The prefilter axis leaves batch retrieval bit-identical, and equal to
    the naive loop."""
    generator = CaseBaseGenerator(SPEC, seed=seed % 50)
    case_base = generator.case_base()
    requests = [generator.request(salt=salt, attribute_count=3) for salt in range(6)]
    requests += widened_requests(generator, seed)
    with small_blocks():
        for similarity in LOCAL_SIMILARITIES:
            off = make_engine(case_base, backend, "off", similarity)
            on = make_engine(case_base, backend, "bounds", similarity)
            expected = make_engine(case_base, "naive", similarity=similarity).retrieve_batch(
                requests, n=4
            )
            for observed in (
                off.retrieve_batch(requests, n=4), on.retrieve_batch(requests, n=4)
            ):
                assert [_exact_view(result) for result in observed] == [
                    _exact_view(result) for result in expected
                ]
                assert [result.statistics for result in observed] == [
                    result.statistics for result in expected
                ]


def clustered_case_base(rows: int = 256) -> CaseBase:
    """Attribute values correlated with implementation order: blocks get
    tight column ranges, so the upper bound genuinely prunes."""
    schema = AttributeSchema()
    schema.define(1, "ascending")
    schema.define(2, "descending")
    bounds = BoundsTable()
    bounds.define(1, 0, 4 * rows)
    bounds.define(2, 0, 4 * rows)
    case_base = CaseBase(schema=schema, bounds=bounds)
    function_type = case_base.add_type(1, name="clustered")
    for index in range(rows):
        function_type.add(Implementation(
            implementation_id=index + 1,
            target=ExecutionTarget.GPP,
            attributes={1: index * 4, 2: 4 * rows - index * 4},
        ))
    return case_base


def test_screen_prunes_on_locality_structured_data():
    """Non-vacuity: the screen must actually skip blocks somewhere."""
    case_base = clustered_case_base()
    request = FunctionRequest(1, [(1, 1020), (2, 4)])
    with small_blocks():
        for similarity in LOCAL_SIMILARITIES:
            off = make_engine(case_base, "vectorized", "off", similarity)
            on = make_engine(case_base, "vectorized", "bounds", similarity)
            expected = off.retrieve_n_best(request, 3)
            observed = on.retrieve_n_best(request, 3)
            assert _full_view(observed) == _full_view(expected)
            naive = make_engine(case_base, "naive", similarity=similarity)
            assert _exact_view(observed) == _exact_view(naive.retrieve_n_best(request, 3))
            assert observed.statistics == expected.statistics
            backend = on.backend
            assert backend.prefilter_rows_pruned > 0
            assert backend.prefilter_rows_pruned < backend.prefilter_rows_total


def test_small_types_fall_through_without_counting():
    """Below PREFILTER_MIN_ROWS the screen steps aside entirely."""
    generator = CaseBaseGenerator(SPEC, seed=11)
    case_base = generator.case_base()
    request = generator.request(salt=2, attribute_count=4)
    # Default thresholds: 48 rows per type is far below 4096.
    off = RetrievalEngine(case_base, backend="vectorized", prefilter="off")
    on = RetrievalEngine(case_base, backend="vectorized", prefilter="bounds")
    assert _full_view(on.retrieve_n_best(request, 5)) == _full_view(
        off.retrieve_n_best(request, 5)
    )
    assert on.backend.prefilter_requests == 0
    assert on.backend.prefilter_rows_total == 0


if HAVE_HYPOTHESIS:

    COMMON = settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @COMMON
    @given(
        seed=st.integers(0, 10_000),
        salt=st.integers(0, 100),
        n=st.integers(1, 10),
        threshold=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_pruned_equals_unpruned(seed, salt, n, threshold):
        check_pruned_equals_unpruned(seed, salt, n, threshold)

    @COMMON
    @given(seed=st.integers(0, 10_000), salt=st.integers(0, 100), n=st.integers(1, 10))
    def test_pruned_equals_naive(seed, salt, n):
        check_pruned_equals_naive(seed, salt, n)

    @pytest.mark.parametrize("backend", ["naive", "vectorized"])
    @COMMON
    @given(seed=st.integers(0, 10_000))
    def test_batch_prefilter(backend, seed):
        check_batch_prefilter(seed, backend)

else:  # pragma: no cover - fallback sweep without hypothesis

    @pytest.mark.parametrize("seed", range(8))
    def test_pruned_equals_unpruned(seed):
        for n, threshold in ((1, 0.0), (3, 0.5), (10, 0.9)):
            check_pruned_equals_unpruned(seed, salt=seed * 7, n=n, threshold=threshold)

    @pytest.mark.parametrize("seed", range(8))
    def test_pruned_equals_naive(seed):
        check_pruned_equals_naive(seed, salt=seed * 3, n=4)

    @pytest.mark.parametrize("backend", ["naive", "vectorized"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_prefilter(backend, seed):
        check_batch_prefilter(seed, backend)
