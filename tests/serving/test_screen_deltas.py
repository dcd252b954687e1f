"""The serving screen under delta windows.

The screen reads the case base for the requested type and the retriever's
bounds table for the attributes, and keeps its verdict in the request's
plan on the case base's encoded image, which each window trims to its
untouched types.  After every random window a live engine's verdicts must
equal those of engines built fresh on copies of the case base, one per
probe, so no expected verdict can come from another probe's plan --
across the windows that move what the screen reads:
an attribute losing its last holder under derived bounds, a brand-new
attribute ID, an emptied type, a removed type, an explicit bounds swap and
a delta log truncated under the live engine.
"""

import random

import pytest

from repro.core import (
    BoundsTable,
    CaseBase,
    ExecutionTarget,
    FunctionRequest,
    Implementation,
    paper_case_base,
)
from repro.core.deltas import DeltaLog
from repro.serving import ServingConfig, ServingEngine, trace_from_requests

TYPES = (1, 2, 3, 4)
ATTRIBUTES = (1, 2, 3, 4, 5)
FRESH_ATTRIBUTES = (6, 7)


def _implementation(rng, implementation_id, attribute_ids):
    return Implementation(
        implementation_id, ExecutionTarget.GPP,
        {a: rng.randint(0, 200) for a in attribute_ids},
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
        for implementation_id in (1, 2, 3):
            ids = rng.sample(ATTRIBUTES, rng.randint(1, len(ATTRIBUTES)))
            case_base.add_implementation(type_id, _implementation(rng, implementation_id, ids))
    return case_base


def _probes():
    """Every (type, attribute) pairing the windows can move, plus a few
    multi-attribute and unencodable requests."""
    probes = [
        FunctionRequest(type_id, [(attribute_id, 10)])
        for type_id in TYPES + (9,)
        for attribute_id in ATTRIBUTES + FRESH_ATTRIBUTES
    ]
    probes += [
        FunctionRequest(type_id, [(1, 10), (3, 20), (5, 30)]) for type_id in TYPES
    ]
    probes.append(FunctionRequest(1, [(1, 70000)]))  # past 16 bits
    probes += _NEAR_ZERO_WEIGHTS
    return probes


#: Wire requests (weights taken as sent) whose weights differ only below
#: 1e-12: the first can be served, the second weighs nothing.
_NEAR_ZERO_WEIGHTS = [
    FunctionRequest(1, [(1, 10, 1e-13)], normalize_weights=False),
    FunctionRequest(1, [(1, 10, 0.0)], normalize_weights=False),
]


def _holders(case_base):
    """attribute ID -> [(type, implementation)] holding it."""
    holders = {}
    for type_id, implementation in case_base.all_implementations():
        for attribute_id in implementation.attributes:
            holders.setdefault(attribute_id, []).append(
                (type_id, implementation.implementation_id)
            )
    return holders


def _window(case_base, rng, step):
    """One window of one to three mutations; every step kind recurs."""
    kind = step % 6
    types = case_base.type_ids()
    if kind == 0:  # take away an attribute's last holder(s)
        holders = _holders(case_base)
        attribute_id = min(holders, key=lambda a: (len(holders[a]), a))
        for type_id, implementation_id in holders[attribute_id]:
            implementation = case_base.get_implementation(type_id, implementation_id)
            kept = {a: v for a, v in implementation.attributes.items() if a != attribute_id}
            if kept:
                case_base.replace_implementation(
                    type_id, Implementation(implementation_id, implementation.target, kept)
                )
            else:
                case_base.remove_implementation(type_id, implementation_id)
    elif kind == 1:  # a brand-new attribute ID
        type_id = rng.choice(types)
        taken = {i.implementation_id for i in case_base.implementations(type_id)}
        ids = [rng.choice(FRESH_ATTRIBUTES), rng.choice(ATTRIBUTES)]
        case_base.add_implementation(
            type_id, _implementation(rng, max(taken, default=0) + 1, ids)
        )
    elif kind == 2:  # empty a type
        type_id = rng.choice(types)
        for implementation in case_base.implementations(type_id):
            case_base.remove_implementation(type_id, implementation.implementation_id)
    elif kind == 3:  # remove a type, re-add another empty one
        if len(types) > 1:
            case_base.remove_type(rng.choice(types))
        missing = [t for t in TYPES if t not in case_base]
        if missing:
            case_base.add_type(rng.choice(missing))
    elif kind == 4:  # swap in an explicit bounds table
        table = BoundsTable()
        for attribute_id in rng.sample(ATTRIBUTES + FRESH_ATTRIBUTES, 4):
            table.define(attribute_id, 0, 500)
        case_base.bounds = table
    else:  # refill: add variants so later windows have holders to take
        for type_id in types:
            taken = {i.implementation_id for i in case_base.implementations(type_id)}
            ids = rng.sample(ATTRIBUTES, 2)
            case_base.add_implementation(
                type_id, _implementation(rng, max(taken, default=0) + 1, ids)
            )


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screen_verdicts_match_a_fresh_engine(seed, explicit):
    rng = random.Random(seed)
    case_base = _case_base(rng, explicit)
    config = ServingConfig(n_best=2)
    live = ServingEngine(case_base, config=config)
    probes = _probes()
    seen = set()

    def check():
        expected = [
            ServingEngine(case_base.copy(), config=config)._screen(probe)
            for probe in probes
        ]
        assert [live._screen(probe) for probe in probes] == expected
        assert [live._screen(probe) for probe in probes] == expected  # memo hits
        seen.update(verdict for verdict in expected)

    check()
    for step in range(12):
        if step == 7:
            # Truncate the log under the live engine: its next refresh takes
            # the full-rebuild path.
            case_base.delta_log = DeltaLog(capacity=1)
            case_base.delta_log.rebase(case_base.revision)
        _window(case_base, rng, step)
        if rng.random() < 0.5:
            _window(case_base, rng, rng.randrange(6))
        check()
    # Every kind of verdict showed up: the comparison is not vacuous.
    assert None in seen
    assert any(v and "not in the bounds table" in v for v in seen)
    assert any(v and "no implementation variants" in v for v in seen)
    assert any(v and "is not in the case base" in v for v in seen)
    assert any(v and "weights sum to zero" in v for v in seen)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_near_zero_weights_are_served_as_if_alone(order):
    """Two requests whose weights differ below 1e-12 each get the outcome a
    fresh engine gives them alone, in either order."""
    requests = [_NEAR_ZERO_WEIGHTS[index] for index in order]
    config = ServingConfig(n_best=2)

    def outcomes(engine, batch):
        report = engine.serve(trace_from_requests(batch))
        return [
            (record.status, record.reason, ranking)
            for record, ranking in zip(report.served, report.rankings())
        ]

    live = outcomes(ServingEngine(paper_case_base(), config=config), requests)
    expected = [
        outcomes(ServingEngine(paper_case_base(), config=config), [request])[0]
        for request in requests
    ]
    assert live == expected
    assert [status.served for status, _, _ in expected] == [
        index == 0 for index in order
    ]
