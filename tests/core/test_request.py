"""Unit tests for function requests and the request builder."""

import math

import pytest

from repro.core import (
    FunctionRequest,
    RequestAttribute,
    RequestBuilder,
    RequestError,
    paper_request,
    paper_schema,
)


class TestRequestAttribute:
    def test_invalid_id_rejected(self):
        with pytest.raises(RequestError):
            RequestAttribute(0, 5)

    def test_negative_weight_rejected(self):
        with pytest.raises(RequestError):
            RequestAttribute(1, 5, -0.1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(RequestError, match="weight"):
            RequestAttribute(1, 5, weight)
        with pytest.raises(RequestError, match="weight"):
            FunctionRequest(1, [(1, 5, weight)], normalize_weights=False)

    @pytest.mark.parametrize(
        "value", [[1, 2], (1, 2), {"a": 1}, "fast", None, math.nan, math.inf, -math.inf]
    )
    def test_value_that_is_not_a_finite_real_number_rejected(self, value):
        with pytest.raises(RequestError, match="finite real number"):
            RequestAttribute(1, value)
        with pytest.raises(RequestError, match="finite real number"):
            FunctionRequest(1, [(1, value)])

    @pytest.mark.parametrize("value", [16, 16.0, -3, 2.5, 10 ** 30])
    def test_finite_real_values_accepted(self, value):
        assert RequestAttribute(1, value).value == value


class TestFunctionRequest:
    def test_weights_are_normalised_by_default(self):
        request = FunctionRequest(1, [(1, 16), (3, 1), (4, 40)])
        weights = request.weights()
        assert weights[1] == pytest.approx(1.0 / 3.0)
        assert request.total_weight() == pytest.approx(1.0)

    def test_unequal_weights_normalise_proportionally(self):
        request = FunctionRequest(1, [(1, 16, 1.0), (4, 40, 3.0)])
        weights = request.weights()
        assert weights[1] == pytest.approx(0.25)
        assert weights[4] == pytest.approx(0.75)

    def test_normalisation_can_be_disabled(self):
        request = FunctionRequest(1, [(1, 16, 0.5), (4, 40, 0.5)], normalize_weights=False)
        assert request.total_weight() == pytest.approx(1.0)
        request = FunctionRequest(1, [(1, 16, 2.0)], normalize_weights=False)
        assert request.get(1).weight == 2.0

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(RequestError):
            FunctionRequest(1, [(1, 16), (1, 8)])

    def test_invalid_type_id_rejected(self):
        with pytest.raises(RequestError):
            FunctionRequest(0, [(1, 16)])
        with pytest.raises(RequestError):
            FunctionRequest(1 << 16, [(1, 16)])

    def test_bad_entry_shape_rejected(self):
        with pytest.raises(RequestError):
            FunctionRequest(1, [(1,)])

    def test_normalise_empty_or_zero_weights_raises(self):
        with pytest.raises(RequestError):
            FunctionRequest(1, [(1, 16, 0.0), (2, 3, 0.0)])
        request = FunctionRequest(1, ())
        assert len(request) == 0

    def test_sorted_attributes_and_contains(self):
        request = FunctionRequest(1, [(4, 40), (1, 16)])
        assert request.attribute_ids() == [1, 4]
        assert 4 in request and 9 not in request
        assert [a.attribute_id for a in request] == [1, 4]

    def test_values_and_get(self):
        request = paper_request()
        assert request.values() == {1: 16, 3: 1, 4: 40}
        assert request.get(3).value == 1
        with pytest.raises(RequestError):
            request.get(2)

    def test_signature_is_stable_and_distinguishes_requests(self):
        a = FunctionRequest(1, [(1, 16), (4, 40)])
        b = FunctionRequest(1, [(4, 40), (1, 16)])
        c = FunctionRequest(1, [(1, 16), (4, 44)])
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()
        assert hash(a.signature()) == hash(b.signature())

    def test_signature_is_exact(self):
        """Weights that differ below 1e-12 are different requests."""
        tiny = FunctionRequest(1, [(1, 16, 1e-13)], normalize_weights=False)
        zero = FunctionRequest(1, [(1, 16, 0.0)], normalize_weights=False)
        assert tiny.signature() != zero.signature()
        above = math.nextafter(1.5 / 65536, 1.0)
        below = math.nextafter(1.5 / 65536, 0.0)
        assert (
            FunctionRequest(1, [(1, 16, above)], normalize_weights=False).signature()
            != FunctionRequest(1, [(1, 16, below)], normalize_weights=False).signature()
        )

    def test_relaxed_scales_selected_attributes(self):
        request = paper_request()
        relaxed = request.relaxed({4: 0.5})
        assert relaxed.get(4).value == pytest.approx(20)
        assert relaxed.get(1).value == 16
        assert relaxed.requester == request.requester

    def test_without_drops_constraints_and_renormalises(self):
        request = paper_request()
        reduced = request.without([3])
        assert reduced.attribute_ids() == [1, 4]
        assert reduced.total_weight() == pytest.approx(1.0)
        emptied = request.without([1, 3, 4])
        assert len(emptied) == 0


class TestRequestBuilder:
    def test_builds_paper_request_from_names(self):
        builder = RequestBuilder(paper_schema(), type_id=1, requester="audio-app")
        request = (
            builder.constrain("bitwidth", 16)
            .constrain("output_mode", "stereo")
            .constrain("sampling_rate", 40)
            .build()
        )
        assert request.values() == paper_request().values()
        assert request.requester == "audio-app"

    def test_weights_pass_through(self):
        builder = RequestBuilder(paper_schema(), type_id=1)
        request = builder.constrain("bitwidth", 16, weight=3.0).constrain(
            "sampling_rate", 40, weight=1.0
        ).build()
        assert request.get(1).weight == pytest.approx(0.75)

    def test_unknown_name_raises(self):
        builder = RequestBuilder(paper_schema(), type_id=1)
        with pytest.raises(Exception):
            builder.constrain("nonexistent", 1)
