"""Property tests: rankings memoised in the request plans equal fresh retrievals.

The serving engine keeps the vectorized backend's result for each exact
request in the request's plan on the case base's encoded image, keyed by
``(n, threshold, bounds table)``, and a repeated request skips the kernel.
The plan's trimming rule (a window drops the plans of the types it touches
or moves, a rebuild drops them all) must keep every memoised ranking equal
to what an engine built fresh on a copy of the case base computes.

* After random retain / revise / remove windows and bounds changes, two live
  engines with different ``(n, threshold)`` on one case base serve a probe
  mix twice; every outcome must equal a fresh engine on a copy, and every
  ranking (IDs, similarity doubles down to the sign bit, statistics) the
  naive golden loop.  The probes include requests whose weights differ
  below 1e-12 (separate plans) and the pairs weight ``0.0``/``-0.0`` and
  value ``16``/``16.0`` (which compare equal and share a plan).
* On ``prefilter="bounds"`` a memo hit equals the pruned scan, and the
  prefilter counters count scored requests only.
* The golden ``naive`` backend never reads or writes the memo.
* Replaying a ``--learn`` trace leaves every memoised result unchanged: no
  downstream consumer (learner, wire encoder, report) mutates a shared one.

Uses hypothesis when available and a seeded parametrized sweep otherwise,
mirroring the other property suites.
"""

import random
from dataclasses import asdict

import pytest

from repro.api import schemas
from repro.core import (
    BoundsTable,
    CaseBase,
    ExecutionTarget,
    FunctionRequest,
    Implementation,
    RetrievalEngine,
)
from repro.core.backends import VectorizedBackend
from repro.core.columnar import TypeTable
from repro.serving import (
    ServingConfig,
    ServingEngine,
    ServingSpec,
    trace_from_requests,
    trace_from_workloads,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


TYPES = (1, 2, 3)
ATTRIBUTES = (1, 2, 3, 4)
#: Two live engines share the case base, so their rankings share each plan
#: under different keys.
CONFIGS = (dict(n_best=3), dict(n_best=2, threshold=0.4))


def _view(result):
    """IDs and similarity doubles, sign bit included."""
    return [(entry.implementation_id, entry.similarity.hex()) for entry in result.ranked]


def _implementation(rng, implementation_id):
    ids = rng.sample(ATTRIBUTES, rng.randint(2, len(ATTRIBUTES)))
    return Implementation(
        implementation_id, ExecutionTarget.GPP, {a: rng.randint(0, 200) for a in ids}
    )


def _case_base(rng, explicit):
    bounds = None
    if explicit:
        bounds = BoundsTable()
        for attribute_id in ATTRIBUTES:
            bounds.define(attribute_id, 0, 400)
    case_base = CaseBase(bounds=bounds)
    for type_id in TYPES:
        case_base.add_type(type_id)
        for implementation_id in (1, 2, 3, 4):
            case_base.add_implementation(type_id, _implementation(rng, implementation_id))
    return case_base


def _probes(rng):
    """Random requests plus the pairs that share, or must not share, a plan."""
    probes = []
    for _ in range(8):
        ids = rng.sample(ATTRIBUTES, rng.randint(1, 3))
        probes.append(FunctionRequest(
            rng.choice(TYPES),
            [(a, rng.randint(0, 200), rng.choice((0.5, 1.0, 2.0))) for a in ids],
        ))
    weight = rng.choice((0.3, 0.55, 0.8))
    probes += [
        # Weights below 1e-12 apart: separate plans, each its own doubles.
        FunctionRequest(1, [(1, 40, weight), (2, 90, 1.0 - weight)],
                        normalize_weights=False),
        FunctionRequest(1, [(1, 40, weight + 1e-13), (2, 90, 1.0 - weight)],
                        normalize_weights=False),
        # Equal keys, so one plan: weight 0.0 / -0.0 and value 16 / 16.0.
        FunctionRequest(2, [(1, 120, 0.0), (3, 60, 1.0)], normalize_weights=False),
        FunctionRequest(2, [(1, 120, -0.0), (3, 60, 1.0)], normalize_weights=False),
        FunctionRequest(3, [(2, 16), (4, 150)]),
        FunctionRequest(3, [(2, 16.0), (4, 150)]),
    ]
    return probes


def _window(case_base, rng):
    """One retain, revise, remove or bounds-change window."""
    kind = rng.randrange(5)
    type_id = rng.choice(TYPES)
    implementations = case_base.implementations(type_id)
    if kind == 0 or len(implementations) < 2:  # retain a new variant
        taken = max(i.implementation_id for i in implementations) if implementations else 0
        case_base.add_implementation(type_id, _implementation(rng, taken + 1))
    elif kind == 1:  # revise one variant's values
        implementation = rng.choice(implementations)
        case_base.replace_implementation(type_id, implementation.with_attributes(
            {a: rng.randint(0, 250) for a in implementation.attributes}
        ))
    elif kind == 2:  # remove one variant
        case_base.remove_implementation(
            type_id, rng.choice(implementations).implementation_id
        )
    elif kind == 3:  # swap in an explicit bounds table (moves every dmax)
        table = BoundsTable()
        for attribute_id in ATTRIBUTES:
            table.define(attribute_id, 0, rng.choice((250, 400, 600)))
        case_base.bounds = table
    else:  # back to derived bounds
        case_base.bounds = None


def _outcomes(report):
    return [
        (record.status, record.reason,
         _view(record.result) if record.result is not None else None)
        for record in report.served
    ]


def check_memo_matches_fresh_engines(seed: int, explicit: bool) -> None:
    rng = random.Random(seed)
    case_base = _case_base(rng, explicit)
    configs = [ServingConfig(max_batch=4, **options) for options in CONFIGS]
    live = [ServingEngine(case_base, config=config) for config in configs]
    served = 0
    for step in range(8):
        if step:
            for _ in range(rng.randint(1, 2)):
                _window(case_base, rng)
        trace = trace_from_requests(_probes(rng), interarrival_us=10.0)
        for engine, config in zip(live, configs):
            first, second = engine.serve(trace), engine.serve(trace)
            fresh = ServingEngine(case_base.copy(), config=config).serve(trace)
            assert _outcomes(first) == _outcomes(fresh)
            assert _outcomes(second) == _outcomes(fresh)
            golden = RetrievalEngine(case_base.copy(), backend="naive")
            for entry, hit, miss in zip(trace, second.served, first.served):
                if hit.result is None:
                    continue
                # The second replay reads the first one's results.
                assert hit.result is miss.result
                expected = golden.retrieve(
                    entry.request, n=config.n_best, threshold=config.threshold
                )
                assert _view(hit.result) == _view(expected)
                assert asdict(hit.result.statistics) == asdict(expected.statistics)
                assert hit.result.threshold == expected.threshold
                served += 1
    assert served  # the comparison is not vacuous


def test_key_separates_n_threshold_and_bounds():
    """One plan holds one ranking per (n, threshold, bounds table)."""
    case_base = _case_base(random.Random(7), explicit=True)
    request = FunctionRequest(1, [(1, 40), (2, 90)])
    trace = trace_from_requests([request])
    engines = [ServingEngine(case_base, config=ServingConfig(**o)) for o in CONFIGS]
    for engine in engines:
        engine.serve(trace)
    plan = case_base.encoded_image.plan(request)
    assert {(n, threshold) for n, threshold, _ in plan.rankings} == {(3, None), (2, 0.4)}
    assert {id(bounds) for _, _, bounds in plan.rankings} == {id(case_base.bounds)}


#: Deep types so the shrunken prefilter thresholds engage.
PREFILTER_SPEC = GeneratorSpec(
    type_count=2,
    implementations_per_type=48,
    attributes_per_implementation=5,
    attribute_type_count=8,
    missing_probability=0.2,
)


def test_prefilter_memo_hit_equals_the_pruned_scan(monkeypatch):
    monkeypatch.setattr(TypeTable, "BLOCK_ROWS", 8)
    monkeypatch.setattr(VectorizedBackend, "PREFILTER_MIN_ROWS", 16)
    generator = CaseBaseGenerator(PREFILTER_SPEC, seed=11)
    case_base = generator.case_base()
    requests = [generator.request(salt=salt, attribute_count=4) for salt in range(6)]
    trace = trace_from_requests(requests, interarrival_us=10.0)
    engine = ServingEngine(
        case_base, config=ServingConfig(n_best=3, max_batch=4, prefilter="bounds")
    )
    first = engine.serve(trace)
    backend = engine.retriever.backend
    scored = backend.prefilter_requests
    assert scored == len(requests)  # every miss went through the pruned scan
    counter = engine.observability.registry.get("repro_prefilter_requests_total")
    counted = counter.child().value
    second = engine.serve(trace)
    pruned = RetrievalEngine(case_base.copy(), backend="vectorized", prefilter="bounds")
    for request, hit, miss in zip(requests, second.served, first.served):
        assert hit.result is miss.result
        expected = pruned.retrieve(request, n=3)
        assert _view(hit.result) == _view(expected)
        assert asdict(hit.result.statistics) == asdict(expected.statistics)
    assert pruned.backend.prefilter_requests == len(requests)
    # Counters count scored requests only: the all-hit replay scored none.
    assert backend.prefilter_requests == scored
    assert counter.child().value == counted


def test_naive_backend_never_touches_the_memo():
    case_base = _case_base(random.Random(3), explicit=False)
    probes = _probes(random.Random(4))
    trace = trace_from_requests(probes, interarrival_us=10.0)
    engine = ServingEngine(case_base, config=ServingConfig(backend="naive", n_best=3))
    first, second = engine.serve(trace), engine.serve(trace)
    plans = case_base.encoded_image.plans
    assert plans  # the screen and pricing did use the plans
    assert all(not plan.rankings for plan in plans.values())
    assert any(record.result is not None for record in second.served)
    for hit, miss in zip(second.served, first.served):
        if hit.result is not None:
            assert hit.result is not miss.result  # scored again, not shared


def _snapshot(result):
    return (
        result.request_type_id,
        result.threshold,
        [(entry.implementation_id, entry.similarity.hex(), entry.implementation,
          entry.local_similarities) for entry in result.ranked],
        asdict(result.statistics),
    )


def test_learn_replay_leaves_memoised_results_unchanged():
    """Results shared through the memo are read, never mutated, downstream."""
    spec = ServingSpec(workloads=("heavy-traffic",))
    case_base = spec.resolve_case_base()
    trace = trace_from_workloads(
        ("heavy-traffic",), duration_us=1.5e6, seed=3, schema=case_base.schema
    )
    engine = ServingEngine(
        case_base, config=ServingConfig(max_batch=8, learn=True, n_best=3)
    )
    snapshots = {}
    memoised = {}
    retrieve = engine._retrieve

    def recording(requests, plans):
        results = retrieve(requests, plans)
        for result in results:
            snapshots.setdefault(id(result), (result, _snapshot(result)))
        for plan in plans or ():
            memoised.update((id(result), result) for result in plan.rankings.values())
        return results

    engine._retrieve = recording
    report = engine.serve(trace)
    for record in report.served:  # every downstream reader runs
        schemas.served_request_to_wire(record)
    report.to_dict()
    results = [record.result for record in report.served if record.result is not None]
    assert report.metrics["learning"]["revised"] > 0
    assert len({id(result) for result in results}) < len(results)  # shared hits
    assert memoised
    for result in list(memoised.values()) + results:
        original, snapshot = snapshots[id(result)]
        assert original is result
        assert _snapshot(result) == snapshot


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("explicit", [False, True])
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_memo_matches_fresh_engines(explicit, seed):
        check_memo_matches_fresh_engines(seed, explicit)

else:  # pragma: no cover - fallback sweep without hypothesis

    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_memo_matches_fresh_engines(explicit, seed):
        check_memo_matches_fresh_engines(seed, explicit)
