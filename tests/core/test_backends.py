"""Differential-equivalence tests for the pluggable retrieval backends.

The vectorized backend must be indistinguishable from the golden naive loop:
identical rankings, bit-identical similarities and identical algorithmic
statistics, across randomized case bases (including missing attributes),
every retrieval mode and the batch API, under the default and a
non-default local similarity.
"""

import pytest

from repro.core import (
    CaseBase,
    CaseReviser,
    ExecutionTarget,
    FunctionRequest,
    Implementation,
    LocalSimilarity,
    MinimumAmalgamation,
    NaiveBackend,
    OutcomeRecord,
    RetrievalEngine,
    RetrievalError,
    SchemaError,
    ThresholdLocalSimilarity,
    UnknownFunctionTypeError,
    VectorizedBackend,
    get_retrieval_backend,
    paper_case_base,
    paper_request,
)
from repro.core.attributes import BoundsTable
from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.software import SoftwareRetrievalUnit
from repro.tools import CaseBaseGenerator, GeneratorSpec


RANDOM_SPECS = [
    GeneratorSpec(type_count=3, implementations_per_type=4,
                  attributes_per_implementation=4, attribute_type_count=6),
    GeneratorSpec(type_count=5, implementations_per_type=8,
                  attributes_per_implementation=6, attribute_type_count=9,
                  missing_probability=0.25),
    GeneratorSpec(type_count=2, implementations_per_type=16,
                  attributes_per_implementation=8, attribute_type_count=10,
                  missing_probability=0.4),
]


#: Local-similarity settings of the differential suites: the paper's, and
#: one where a missing attribute scores 0.25 and a distance beyond ``dmax``
#: goes negative (no clamp), so padded and absent cells cannot hide.
LOCAL_SIMILARITIES = [{}, {"missing_similarity": 0.25, "clamp": False}]


def engine_pair(case_base, **similarity):
    naive, vectorized = (
        RetrievalEngine(
            case_base,
            backend=backend,
            local_similarity=LocalSimilarity(case_base.bounds, **similarity),
        )
        for backend in ("naive", "vectorized")
    )
    assert naive.backend_name == "naive"
    assert vectorized.backend_name == "vectorized"
    return naive, vectorized


def widened_requests(generator, spec):
    """Same-type requests of one attribute and of every attribute, each
    again with an extra attribute ID that no implementation holds (and the
    bounds table lacks), the wide one with values far beyond the bounds."""
    low, high = spec.value_range
    unheld = (spec.attribute_type_count + 1, low, 1.0)
    requests = []
    for salt in range(4):
        type_id = 1 + salt % spec.type_count
        narrow = generator.request(type_id, 1, salt=salt)
        wide = generator.request(type_id, spec.attribute_type_count, salt=salt)
        far = [
            (attribute.attribute_id, attribute.value + 3 * (high - low), attribute.weight)
            for attribute in wide.sorted_attributes()
        ]
        near = [(a.attribute_id, a.value, a.weight) for a in narrow.sorted_attributes()]
        requests += [
            narrow,
            wide,
            FunctionRequest(type_id, near + [unheld]),
            FunctionRequest(type_id, far + [unheld]),
        ]
    return requests


def assert_results_identical(reference, candidate):
    assert candidate.ids() == reference.ids()
    # float.hex tells 0.0 from -0.0: the doubles must agree to the sign bit.
    assert [entry.similarity.hex() for entry in candidate] == [
        entry.similarity.hex() for entry in reference
    ]
    assert candidate.statistics == reference.statistics
    assert candidate.threshold == reference.threshold
    assert candidate.request_type_id == reference.request_type_id


class TestBackendSelection:
    def test_names_resolve(self, paper_cb):
        assert RetrievalEngine(paper_cb).backend_name == "naive"
        assert RetrievalEngine(paper_cb, backend="reference").backend_name == "naive"
        assert RetrievalEngine(paper_cb, backend="vectorized").backend_name == "vectorized"

    def test_unknown_name_rejected(self, paper_cb):
        with pytest.raises(RetrievalError):
            RetrievalEngine(paper_cb, backend="cuda")
        with pytest.raises(RetrievalError):
            get_retrieval_backend("cuda")

    def test_instances_accepted(self, paper_cb):
        engine = RetrievalEngine(paper_cb, backend=VectorizedBackend())
        assert engine.backend_name == "vectorized"
        assert engine.backend.engine is engine

    def test_backend_cannot_serve_two_engines(self, paper_cb):
        backend = NaiveBackend()
        RetrievalEngine(paper_cb, backend=backend)
        with pytest.raises(RetrievalError):
            RetrievalEngine(paper_cb, backend=backend)

    def test_incompatible_amalgamation_falls_back_to_naive(self, paper_cb):
        engine = RetrievalEngine(
            paper_cb, backend="vectorized", amalgamation=MinimumAmalgamation()
        )
        assert engine.backend_name == "naive"

    def test_incompatible_local_similarity_falls_back_to_naive(self, paper_cb):
        custom = ThresholdLocalSimilarity(paper_cb.bounds, tolerance=2.0)
        engine = RetrievalEngine(paper_cb, backend="vectorized", local_similarity=custom)
        assert engine.backend_name == "naive"


@pytest.mark.parametrize("spec_index", range(len(RANDOM_SPECS)))
@pytest.mark.parametrize("seed", [1, 17])
class TestDifferentialEquivalence:
    def _engines(self, spec_index, seed):
        """``(naive, vectorized, requests)`` per local-similarity setting."""
        spec = RANDOM_SPECS[spec_index]
        generator = CaseBaseGenerator(spec, seed=seed)
        case_base = generator.case_base()
        requests = [
            generator.request(salt=salt, attribute_count=4) for salt in range(12)
        ] + widened_requests(generator, spec)
        for similarity in LOCAL_SIMILARITIES:
            yield (*engine_pair(case_base, **similarity), requests)

    def test_retrieve_best_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for request in requests:
                assert_results_identical(
                    naive.retrieve_best(request), vectorized.retrieve_best(request)
                )

    def test_retrieve_n_best_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for request in requests:
                for n in (1, 2, 100):
                    assert_results_identical(
                        naive.retrieve_n_best(request, n),
                        vectorized.retrieve_n_best(request, n),
                    )

    def test_retrieve_above_threshold_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for request in requests:
                for threshold in (0.0, 0.5, 0.9, 1.0):
                    assert_results_identical(
                        naive.retrieve_above_threshold(request, threshold),
                        vectorized.retrieve_above_threshold(request, threshold),
                    )

    def test_combined_retrieve_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for request in requests:
                assert_results_identical(
                    naive.retrieve(request, n=3, threshold=0.4),
                    vectorized.retrieve(request, n=3, threshold=0.4),
                )

    def test_retrieve_batch_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for kwargs in ({}, {"n": 2}, {"threshold": 0.6}, {"n": 3, "threshold": 0.3}):
                naive_results = naive.retrieve_batch(requests, **kwargs)
                vector_results = vectorized.retrieve_batch(requests, **kwargs)
                assert len(naive_results) == len(vector_results) == len(requests)
                for reference, candidate in zip(naive_results, vector_results):
                    assert_results_identical(reference, candidate)

    def test_score_all_identical(self, spec_index, seed):
        for naive, vectorized, requests in self._engines(spec_index, seed):
            for request in requests:
                naive_scored = naive.score_all(request)
                vector_scored = vectorized.score_all(request)
                assert [entry.implementation_id for entry in naive_scored] == [
                    entry.implementation_id for entry in vector_scored
                ]
                assert [entry.similarity.hex() for entry in naive_scored] == [
                    entry.similarity.hex() for entry in vector_scored
                ]


class TestVectorizedStatistics:
    """Satellite bugfix: the vectorized backend must account algorithmic effort
    identically to the sequential scan, not report zeros."""

    def test_counters_match_paper_example(self, paper_cb, paper_req):
        naive, vectorized = engine_pair(paper_cb)
        reference = naive.retrieve_best(paper_req).statistics
        candidate = vectorized.retrieve_best(paper_req).statistics
        assert candidate == reference
        assert candidate.implementations_visited == 3
        assert candidate.attributes_requested == 9
        assert candidate.multiplications == 9
        assert candidate.best_updates >= 1

    def test_missing_attributes_counted(self):
        generator = CaseBaseGenerator(RANDOM_SPECS[1], seed=5)
        case_base = generator.case_base()
        naive, vectorized = engine_pair(case_base)
        request = generator.request(salt=9, attribute_count=6)
        reference = naive.retrieve_n_best(request, 4).statistics
        candidate = vectorized.retrieve_n_best(request, 4).statistics
        assert candidate == reference
        assert candidate.missing_attributes > 0
        assert (
            candidate.attribute_compares + candidate.missing_attributes
            == candidate.attribute_lookups
        )

    def test_batch_results_carry_per_request_statistics(self):
        generator = CaseBaseGenerator(RANDOM_SPECS[0], seed=2)
        case_base = generator.case_base()
        naive, vectorized = engine_pair(case_base)
        requests = [generator.request(salt=salt, attribute_count=3) for salt in range(6)]
        for reference, candidate in zip(
            naive.retrieve_batch(requests), vectorized.retrieve_batch(requests)
        ):
            assert candidate.statistics == reference.statistics
            assert candidate.statistics.implementations_visited > 0


class TestErrorParity:
    def test_unknown_type(self, paper_cb):
        naive, vectorized = engine_pair(paper_cb)
        request = FunctionRequest(999, [(1, 10)])
        for engine in (naive, vectorized):
            with pytest.raises(UnknownFunctionTypeError):
                engine.retrieve_best(request)

    def test_empty_type(self):
        case_base = CaseBase()
        case_base.add_type(1)
        naive, vectorized = engine_pair(case_base)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError):
                engine.retrieve_best(FunctionRequest(1, [(1, 10)]))

    def test_empty_request(self, paper_cb):
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError):
                engine.retrieve_best(FunctionRequest(1, ()))

    def test_invalid_arguments(self, paper_cb, paper_req):
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError):
                engine.retrieve_n_best(paper_req, 0)
            with pytest.raises(RetrievalError):
                engine.retrieve_above_threshold(paper_req, 1.5)
            with pytest.raises(RetrievalError):
                engine.retrieve(paper_req, n=-2)

    def test_batch_validates_mode_arguments(self, paper_cb, paper_req):
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError):
                engine.retrieve_batch([paper_req], n=-1)
            with pytest.raises(RetrievalError):
                engine.retrieve_batch([paper_req], n=0)
            with pytest.raises(RetrievalError):
                engine.retrieve_batch([paper_req], threshold=2.0)

    def test_empty_batch_returns_empty_list(self, paper_cb):
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            assert engine.retrieve_batch([]) == []
            assert engine.retrieve_batch([], n=3) == []

    def test_all_zero_weights(self, paper_cb):
        request = FunctionRequest(
            1, [(1, 16, 0.0), (4, 40, 0.0)], normalize_weights=False
        )
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError):
                engine.retrieve_best(request)

    def test_batch_error_order_matches_sequential(self, paper_cb):
        """A zero-weight request earlier in the batch must win over a later
        unknown-type request on both backends, like sequential retrieval."""
        zero_weight = FunctionRequest(
            1, [(1, 16, 0.0)], normalize_weights=False
        )
        unknown_type = FunctionRequest(9999, [(1, 8)])
        naive, vectorized = engine_pair(paper_cb)
        for engine in (naive, vectorized):
            with pytest.raises(RetrievalError, match="weights must not all be zero"):
                engine.retrieve_batch([zero_weight, unknown_type])


    def test_bounds_gap_raises_before_mode_arguments(self, paper_cb):
        """A held, requested attribute without a bounds entry fails request 0
        before its mode arguments are checked, like the sequential loop."""
        request = FunctionRequest(1, [(1, 16), (4, 40)])
        bounds = BoundsTable([b for b in paper_cb.bounds if b.attribute_id != 4])
        engines = [
            RetrievalEngine(paper_cb, bounds=bounds, backend=backend)
            for backend in ("naive", "vectorized")
        ]
        for engine in engines:
            with pytest.raises(SchemaError, match="attribute 4"):
                engine.retrieve_batch([request], n=0)
            with pytest.raises(SchemaError, match="attribute 4"):
                engine.retrieve(request, n=0)
            # No request names the gap, or no implementation holds it.
            assert engine.retrieve_batch([FunctionRequest(1, [(1, 16)])], n=1)
            assert engine.retrieve_batch([FunctionRequest(1, [(1, 16), (77, 3)])], n=1)
        # An entry defined after the failures is read from then on.
        bounds.add(paper_cb.bounds.get(4))
        naive, vectorized = engines
        assert_results_identical(naive.retrieve(request, n=3), vectorized.retrieve(request, n=3))

    def test_bounds_gap_raised_at_first_holding_row(self):
        """Two unbounded attributes: the error names the one the first row
        holding either of them holds, not the lower ID."""
        bounds = BoundsTable()
        bounds.define(1, 0, 10)
        case_base = CaseBase(bounds=bounds)
        case_base.add_type(1)
        case_base.add_implementation(1, Implementation(1, ExecutionTarget.GPP, {1: 1, 3: 2}))
        case_base.add_implementation(1, Implementation(2, ExecutionTarget.GPP, {1: 1, 2: 2}))
        request = FunctionRequest(1, [(1, 1), (2, 2), (3, 3)])
        for engine in engine_pair(case_base):
            with pytest.raises(SchemaError, match="attribute 3"):
                engine.retrieve_batch([request])


class TestCacheInvalidation:
    def test_add_implementation_invalidates(self, paper_req):
        case_base = paper_case_base()
        engine = RetrievalEngine(case_base, backend="vectorized")
        before = engine.retrieve_best(paper_req)
        # A new variant that matches the request exactly must win immediately.
        case_base.add_implementation(
            1,
            Implementation(9, ExecutionTarget.FPGA, {1: 16, 3: 1, 4: 40}, name="exact"),
        )
        after = engine.retrieve_best(paper_req)
        assert before.best_id != 9
        assert after.best_id == 9
        assert after.best_similarity == pytest.approx(1.0)

    def test_remove_implementation_invalidates(self, paper_req):
        case_base = paper_case_base()
        engine = RetrievalEngine(case_base, backend="vectorized")
        winner = engine.retrieve_best(paper_req).best_id
        case_base.remove_implementation(1, winner)
        assert engine.retrieve_best(paper_req).best_id != winner

    def test_learning_revise_invalidates(self, paper_req):
        """The CBR revise step goes through replace_implementation and must be
        visible to the cached matrices (ISSUE: learning.py mutations)."""
        case_base = paper_case_base()
        naive = RetrievalEngine(case_base.copy(), backend="naive")
        vectorized = RetrievalEngine(case_base, backend="vectorized")
        outcome = OutcomeRecord(
            type_id=1, implementation_id=2, measured_attributes={4: 2}
        )
        reviser = CaseReviser(learning_rate=1.0)
        reviser.revise(vectorized.case_base, outcome)
        reviser.revise(naive.case_base, outcome)
        assert_results_identical(
            naive.retrieve_n_best(paper_req, 3), vectorized.retrieve_n_best(paper_req, 3)
        )

    def test_explicit_invalidate_after_in_place_mutation(self, paper_req):
        """Invalidating any one consumer refreshes every consumer of the
        case base, and no unit pairs rebuilt tables with stale words."""
        for invalidated in ("engine", "hardware", "software"):
            case_base = paper_case_base()
            engine = RetrievalEngine(case_base, backend="vectorized")
            hardware = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=3))
            software = SoftwareRetrievalUnit(case_base)
            engine.retrieve_best(paper_req)
            before = hardware.run_batch([paper_req])[0].ranked
            software.predict_cycles([paper_req])
            image = hardware.pricing_image()
            words_before = list(image.words)
            rebuilds = image.tracker.rebuild_count
            # In-place attribute mutation bypasses the revision counter...
            case_base.get_implementation(1, 2).attributes[4] = 9999
            # ...so an explicit invalidation is required to see it.
            {
                "engine": engine.invalidate_cache,
                "hardware": hardware.invalidate,
                "software": software.invalidate,
            }[invalidated]()
            # The shared CB-MEM words are re-encoded, equal to a copy's own.
            expected_words = case_base.copy().encoded_image.words
            assert software.pricing_image() is image
            assert image.tracker.rebuild_count == rebuilds + 1, invalidated
            assert image.words == expected_words != words_before
            assert hardware.case_base_ram.dump() == expected_words
            fresh = RetrievalEngine(case_base.copy(), backend="naive")
            assert_results_identical(
                fresh.retrieve_best(paper_req), engine.retrieve_best(paper_req)
            )
            for unit in (hardware, software):
                stepwise = unit.run_batch([paper_req], engine="stepwise")[0]
                vectorized = unit.run_batch([paper_req], engine="vectorized")[0]
                assert vectorized.statistics == stepwise.statistics, invalidated
                assert vectorized.best_similarity_raw == stepwise.best_similarity_raw
                assert unit.predict_cycles([paper_req]) == [stepwise.cycles]
            assert hardware.run_batch([paper_req])[0].ranked != before  # edit seen

    def test_one_columnar_image_per_case_base(self, paper_req):
        case_base = paper_case_base()
        engine = RetrievalEngine(case_base, backend="vectorized")
        hardware = HardwareRetrievalUnit(case_base)
        software = SoftwareRetrievalUnit(case_base)
        engine.retrieve_best(paper_req)
        hardware.predict_cycles([paper_req])
        software.predict_cycles([paper_req])
        tables = case_base.type_tables
        assert hardware.pricing_image().tables is tables
        assert software.pricing_image().tables is tables
        assert list(tables.types) == [paper_req.type_id]  # built once, for all
        table = tables.types[paper_req.type_id]
        case_base.add_implementation(
            1, Implementation(9, ExecutionTarget.DSP, {1: 16, 2: 0, 3: 1, 4: 40})
        )
        engine.retrieve_best(paper_req)
        hardware.predict_cycles([paper_req])
        software.predict_cycles([paper_req])
        assert tables.types[paper_req.type_id] is table  # patched once, in place
        assert tables.tracker.incremental_count == 1
        assert case_base.copy().type_tables is not tables

    def test_mixed_type_batch_after_mutation(self):
        generator = CaseBaseGenerator(RANDOM_SPECS[0], seed=8)
        case_base = generator.case_base()
        engine = RetrievalEngine(case_base, backend="vectorized")
        requests = [generator.request(salt=salt, attribute_count=3) for salt in range(8)]
        engine.retrieve_batch(requests)
        case_base.remove_implementation(1, 1)
        oracle = RetrievalEngine(case_base, backend="naive")
        for reference, candidate in zip(
            oracle.retrieve_batch(requests, n=2), engine.retrieve_batch(requests, n=2)
        ):
            assert_results_identical(reference, candidate)
