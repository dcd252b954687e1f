"""Online CBR learning in the serving loop (``ServingConfig.learn``).

The paper defers run-time case-base updates to future work; these tests pin
down the serving-layer wiring of :mod:`repro.core.learning`: outcomes fed
back between micro-batches, retention under the per-type capacity, learning
metrics, and the interaction with the delta-propagation subsystem (mutations
mid-stream must not force O(case-base) rebuilds or break determinism).
"""

import pytest

from repro.core import FunctionRequest, ReproError
from repro.serving import (
    OnlineLearner,
    ServingConfig,
    ServingEngine,
    ServingSpec,
    synthetic_trace,
    trace_from_requests,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec


@pytest.fixture()
def generator():
    return CaseBaseGenerator(
        GeneratorSpec(type_count=4, implementations_per_type=4,
                      attributes_per_implementation=5, attribute_type_count=6),
        seed=3,
    )


def _learning_engine(case_base, **overrides):
    defaults = dict(max_batch=8, n_best=2, learn=True, novelty_threshold=0.99,
                    learn_capacity=10)
    defaults.update(overrides)
    return ServingEngine(case_base, config=ServingConfig(**defaults))


def test_learning_grows_the_case_base_mid_stream(generator):
    case_base = generator.case_base()
    before = case_base.count_implementations()
    revision_before = case_base.revision
    trace = synthetic_trace(case_base, 60, mean_interarrival_us=50.0, seed=9)
    report = _learning_engine(case_base).serve(trace)

    learning = report.metrics["learning"]
    assert learning["implementations_before"] == before
    assert learning["implementations_after"] == case_base.count_implementations()
    assert learning["retained"] > 0
    assert case_base.count_implementations() > before
    assert case_base.revision > revision_before
    assert learning["revisions"] == case_base.revision - revision_before
    # Every retained case respects the per-type capacity.
    for function_type in case_base.sorted_types():
        assert len(function_type) <= 10


def test_learning_off_keeps_case_base_frozen(generator):
    case_base = generator.case_base()
    revision = case_base.revision
    trace = synthetic_trace(case_base, 40, mean_interarrival_us=50.0, seed=9)
    report = _learning_engine(case_base, learn=False).serve(trace)
    assert "learning" not in report.metrics
    assert case_base.revision == revision


def test_learning_replay_is_deterministic(generator):
    source = generator.case_base()
    trace = synthetic_trace(source, 50, mean_interarrival_us=50.0, seed=4)
    first_base, second_base = source.copy(), source.copy()
    first = _learning_engine(first_base).serve(trace)
    second = _learning_engine(second_base).serve(trace)
    assert first.rankings() == second.rankings()
    assert first.metrics["learning"] == second.metrics["learning"]
    assert first_base.to_dict() == second_base.to_dict()


def test_revision_converges_on_repeated_identical_traffic(generator):
    """Revise blends towards the measured values and then stops mutating."""
    case_base = generator.case_base()
    request = generator.request(salt=1, attribute_count=4)
    trace = trace_from_requests([request] * 12, interarrival_us=100.0)
    engine = _learning_engine(case_base, novelty_threshold=0.0)  # never retain
    engine.serve(trace)
    settled = case_base.revision
    engine.serve(trace)
    # The stored case has converged onto the request's values: no further
    # revisions, no retentions, no revision bumps.
    assert case_base.revision == settled


def test_learner_skips_requests_without_ranking(generator):
    case_base = generator.case_base()
    learner = OnlineLearner(case_base, ServingConfig(learn=True))
    request = generator.request(salt=2, attribute_count=3)
    result = type("R", (), {"best": None})()
    learner.observe(request, result)  # must be a no-op
    assert learner.revised_count == 0 and learner.retained_count == 0


def test_config_validation():
    with pytest.raises(ReproError):
        ServingConfig(learning_rate=1.5)
    with pytest.raises(ReproError):
        ServingConfig(novelty_threshold=-0.1)
    with pytest.raises(ReproError):
        ServingConfig(learn_capacity=0)


def test_learning_through_application_api():
    """``ApplicationAPI.serving_engine(ServingSpec(learn=True))`` shares the manager's base."""
    from repro.apps import build_scenario

    scenario = build_scenario()
    api = scenario.application_api
    engine = api.serving_engine(ServingSpec(learn=True, max_batch=8, novelty_threshold=0.99))
    assert engine.learner is not None
    case_base = scenario.manager.case_base
    before = case_base.count_implementations()
    trace = synthetic_trace(case_base, 40, mean_interarrival_us=50.0, seed=7)
    report = engine.serve(trace)
    assert report.metrics["learning"]["implementations_after"] == (
        case_base.count_implementations()
    )
    assert case_base.count_implementations() >= before


def test_serve_trace_learn_compare_cli(capsys):
    """``repro serve-trace --learn --engine compare`` stays bit-identical."""
    from repro.cli import main

    exit_code = main([
        "serve-trace", "--random", "60", "--seed", "6",
        "--max-batch", "8", "--learn", "--novelty-threshold", "0.99",
        "--engine", "compare", "--show", "2",
    ])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "learning: revised=" in output
    assert "bit-identical for 60/60 requests" in output
