"""The serving screen: one plan lookup per request, unchanged reasons.

A request's plan holds its encoding, so a request screened with a plan runs
only the checks ahead of the encode step; one without a plan (the request
does not encode) keeps the full uncached screen.  Either way every failure
kind keeps its reason string byte for byte.
"""

import pytest

from repro.core import FunctionRequest, paper_case_base
from repro.memmap.image import DeltaTrackedImage
from repro.serving import ServingConfig, ServingEngine, trace_from_requests

#: Each failure kind, its probe and its exact reason string.
FAILURES = {
    "unknown type": (
        FunctionRequest(99, [(1, 16)]),
        "function type 99 is not in the case base",
    ),
    "empty type": (
        FunctionRequest(7, [(1, 16)]),
        "function type 7 has no implementation variants",
    ),
    "no attributes": (
        FunctionRequest(1, []),
        "request has no constraining attributes",
    ),
    "zero weights": (
        FunctionRequest(1, [(1, 16, 0.0)], normalize_weights=False),
        "request weights sum to zero",
    ),
    "attribute without bounds": (
        FunctionRequest(1, [(1, 16), (42, 3)]),
        "attribute 42 is not in the bounds table",
    ),
    "non-integral value": (
        FunctionRequest(1, [(1, 16.5)]),
        "attribute value 16.5 is not integral; scale real-valued attributes "
        "to integers before encoding",
    ),
    # A bounds gap is reported ahead of an encoding failure.
    "attribute without bounds, non-integral value": (
        FunctionRequest(1, [(1, 16.5), (42, 3)]),
        "attribute 42 is not in the bounds table",
    ),
}


@pytest.fixture
def engine():
    case_base = paper_case_base()
    case_base.add_type(7)  # a type with no implementation variants
    return ServingEngine(case_base, config=ServingConfig(max_batch=8))


@pytest.fixture
def plan_calls(monkeypatch):
    calls = []
    plan = DeltaTrackedImage.plan

    def counting(self, request):
        calls.append(request)
        return plan(self, request)

    monkeypatch.setattr(DeltaTrackedImage, "plan", counting)
    return calls


def test_a_miss_looks_its_plan_up_once(engine, plan_calls):
    request = FunctionRequest(1, [(1, 16), (3, 1), (4, 40)])
    image = engine._plan_image()
    verdict, plan = engine._screen_plan(request, image)
    assert verdict is None and plan is not None
    assert len(plan_calls) == 1
    assert engine._screen_plan(request, image) == (None, plan)
    assert len(plan_calls) == 2


def test_a_served_batch_looks_each_plan_up_once(engine, plan_calls):
    requests = [FunctionRequest(1, [(1, 10 + i), (3, 1), (4, 40)]) for i in range(6)]
    report = engine.serve(trace_from_requests(requests))
    assert report.metrics["statuses"] == {"served_hardware": 6}
    assert len(plan_calls) == len(requests)


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failure_reasons_are_unchanged(engine, kind):
    request, reason = FAILURES[kind]
    assert engine._screen(request) == reason
    assert engine._screen(request) == reason  # from the plan, when one exists
    assert engine._screen_uncached(request) == reason
