"""Property-based test: serving retrieves exactly what the engine retrieves.

For any generated case base, any request mix and any retrieval mode, the
rankings a :class:`~repro.serving.ServingEngine` serves must equal a direct
naive-loop :class:`~repro.core.retrieval.RetrievalEngine` retrieval
*exactly* -- same implementation IDs in the same order with bit-equal
similarity doubles -- across the backend axis (naive golden loop vs the
NumPy-vectorized kernel) and the cycle-engine axis (the cycle engines behind
admission never influence rankings or statuses, only latency modelling).

Uses hypothesis when available and degrades to a seeded parametrized sweep
otherwise, following the pattern of the other property suites.
"""

import pytest

from repro.core import RetrievalEngine
from repro.serving import ServingConfig, ServingEngine, synthetic_trace
from repro.tools import CaseBaseGenerator, GeneratorSpec

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


BACKENDS = ["naive", "vectorized"]
CYCLE_ENGINES = ["stepwise", "vectorized"]

#: Small sizing with deliberate attribute gaps (missing-attribute handling is
#: part of the similarity arithmetic being compared).
SPEC = GeneratorSpec(
    type_count=3,
    implementations_per_type=6,
    attributes_per_implementation=5,
    attribute_type_count=8,
    missing_probability=0.2,
)


def _exact_rankings(result):
    return [(entry.implementation_id, entry.similarity) for entry in result.ranked]


def _outcomes(report):
    return [(record.status, ranking) for record, ranking in zip(
        report.served, report.rankings()
    )]


def check_serving_equals_engine(
    seed: int, n: int, threshold, backend: str
) -> None:
    generator = CaseBaseGenerator(SPEC, seed=seed % 50)
    case_base = generator.case_base()
    trace = synthetic_trace(case_base, 12, mean_interarrival_us=50.0, seed=seed)
    report = ServingEngine(
        case_base,
        config=ServingConfig(backend=backend, n_best=n, threshold=threshold, max_batch=4),
    ).serve(trace)
    reference = RetrievalEngine(case_base, backend="naive")
    served = [record for record in report.served if record.status.served]
    assert served  # no vacuous pass: unconstrained admission serves traffic
    for record in served:
        expected = reference.retrieve(
            trace[record.index].request, n=n, threshold=threshold
        )
        assert _exact_rankings(record.result) == _exact_rankings(expected)


def check_serving_engine_axes(seed: int, cycle_engine: str) -> None:
    """The full pipeline matches the golden path across the engine axes."""
    generator = CaseBaseGenerator(SPEC, seed=seed % 50)
    case_base = generator.case_base()
    trace = synthetic_trace(case_base, 10, mean_interarrival_us=50.0, seed=seed)
    served, golden = (
        ServingEngine(
            case_base,
            config=ServingConfig(
                backend=backend, cycle_engine=engine, n_best=4, max_batch=4,
                deadline_us=400.0,
            ),
        ).serve(trace)
        for backend, engine in (("vectorized", cycle_engine), ("naive", "stepwise"))
    )
    assert _outcomes(served) == _outcomes(golden)


if HAVE_HYPOTHESIS:

    COMMON = settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @COMMON
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 7),
        threshold=st.none() | st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_serving_equals_engine(backend, seed, n, threshold):
        check_serving_equals_engine(seed, n, threshold, backend)

    @pytest.mark.parametrize("cycle_engine", CYCLE_ENGINES)
    @COMMON
    @given(seed=st.integers(0, 10_000))
    def test_serving_engine_axes(cycle_engine, seed):
        check_serving_engine_axes(seed, cycle_engine)

else:  # pragma: no cover - fallback sweep without hypothesis

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_serving_equals_engine(backend, seed):
        for n in (1, 3, 7):
            for threshold in (None, 0.5):
                check_serving_equals_engine(seed, n, threshold, backend)

    @pytest.mark.parametrize("cycle_engine", CYCLE_ENGINES)
    @pytest.mark.parametrize("seed", range(4))
    def test_serving_engine_axes(cycle_engine, seed):
        check_serving_engine_axes(seed, cycle_engine=cycle_engine)
