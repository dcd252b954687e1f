"""Differential suite: the vectorized cycle engine vs the stepwise golden models.

The vectorized engine's contract is *exactness*, not approximation: for every
configuration axis it must reproduce the stepwise models' retrieval decision,
ranked n-best list, raw fixed-point similarities and the complete
cycle/instruction/memory-read accounting, bit for bit and cycle for cycle.
"""

import itertools
import math

import pytest

from repro.core import FunctionRequest, paper_case_base, paper_request
from repro.core.case_base import ExecutionTarget, Implementation
from repro.core.exceptions import (
    EncodingError,
    HardwareModelError,
    ReproError,
    SoftwareModelError,
    UnknownFunctionTypeError,
)
from repro.cosim import (
    StepwiseCycleEngine,
    VectorizedCycleEngine,
    resolve_cycle_engine,
)
from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.memmap.request_list import encode_request
from repro.software import (
    SoftwareRetrievalUnit,
    microblaze_cost_model,
    microblaze_soft_multiply_model,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec


HW_STAT_FIELDS = (
    "cycles", "case_base_reads", "request_reads", "implementations_visited",
    "attribute_probes", "supplemental_probes", "missing_attributes", "best_updates",
)
SW_STAT_FIELDS = (
    "cycles", "instructions", "memory_reads", "implementations_visited",
    "helper_calls", "missing_attributes",
)


def assert_hardware_identical(stepwise, vectorized):
    assert stepwise.type_id == vectorized.type_id
    assert stepwise.best_id == vectorized.best_id
    assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
    assert stepwise.ranked == vectorized.ranked
    for field in HW_STAT_FIELDS:
        assert getattr(stepwise.statistics, field) == getattr(vectorized.statistics, field), field
    assert stepwise.statistics.memory_reads == vectorized.statistics.memory_reads


def assert_software_identical(stepwise, vectorized):
    assert stepwise.type_id == vectorized.type_id
    assert stepwise.best_id == vectorized.best_id
    assert stepwise.best_similarity_raw == vectorized.best_similarity_raw
    for field in SW_STAT_FIELDS:
        assert getattr(stepwise.statistics, field) == getattr(vectorized.statistics, field), field
    assert stepwise.counters.counts == vectorized.counters.counts


@pytest.fixture(scope="module")
def generated():
    generator = CaseBaseGenerator(
        GeneratorSpec(
            type_count=4,
            implementations_per_type=6,
            attributes_per_implementation=6,
            attribute_type_count=9,
            missing_probability=0.25,
        ),
        seed=31,
    )
    case_base = generator.case_base()
    requests = [generator.request(salt=salt, attribute_count=5) for salt in range(10)]
    return case_base, requests


class TestHardwareDifferential:
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("n_best", [1, 3, 8])
    def test_optimisation_axes(self, generated, wide, pipelined, cache, n_best):
        case_base, requests = generated
        unit = HardwareRetrievalUnit(
            case_base,
            config=HardwareConfig(
                wide_attribute_fetch=wide,
                pipelined_datapath=pipelined,
                cache_reciprocals=cache,
                n_best=n_best,
            ),
        )
        for stepwise, vectorized in zip(
            unit.run_batch(requests, engine="stepwise"),
            unit.run_batch(requests, engine="vectorized"),
        ):
            assert_hardware_identical(stepwise, vectorized)

    @pytest.mark.parametrize("restart", [False, True])
    @pytest.mark.parametrize("divider", [False, True])
    def test_design_alternative_axes(self, generated, restart, divider):
        case_base, requests = generated
        unit = HardwareRetrievalUnit(
            case_base,
            config=HardwareConfig(
                restart_attribute_search=restart, use_divider=divider, n_best=2
            ),
        )
        for stepwise, vectorized in zip(
            unit.run_batch(requests, engine="stepwise"),
            unit.run_batch(requests, engine="vectorized"),
        ):
            assert_hardware_identical(stepwise, vectorized)

    def test_paper_example(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb)
        stepwise = unit.run_batch([paper_req], engine="stepwise")[0]
        vectorized = unit.run_batch([paper_req], engine="vectorized")[0]
        assert_hardware_identical(stepwise, vectorized)
        assert vectorized.best_id == 2
        assert vectorized.best_similarity == pytest.approx(0.964, abs=0.002)

    def test_duplicate_requests_grouped(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb)
        results = unit.run_batch([paper_req] * 4, engine="vectorized")
        reference = unit.run(paper_req)
        for result in results:
            assert_hardware_identical(reference, result)

    def test_empty_type_parity(self, paper_cb):
        paper_cb.add_type(9, name="empty")
        request = FunctionRequest(9, [(1, 16)])
        unit = HardwareRetrievalUnit(paper_cb)
        stepwise = unit.run_batch([request], engine="stepwise")[0]
        vectorized = unit.run_batch([request], engine="vectorized")[0]
        assert_hardware_identical(stepwise, vectorized)
        assert vectorized.ranked == []

    @pytest.mark.parametrize("engine", ["stepwise", "vectorized"])
    def test_unknown_type_raises(self, paper_cb, engine):
        unit = HardwareRetrievalUnit(paper_cb)
        with pytest.raises(UnknownFunctionTypeError):
            unit.run_batch([FunctionRequest(99, [(1, 16)])], engine=engine)

    @pytest.mark.parametrize("engine", ["stepwise", "vectorized"])
    def test_missing_bounds_entry_raises_same_message(self, paper_cb, engine):
        unit = HardwareRetrievalUnit(paper_cb)
        with pytest.raises(HardwareModelError, match="attribute 5 has no supplemental"):
            unit.run_batch([FunctionRequest(1, [(5, 3)])], engine=engine)

    @pytest.mark.parametrize("engine", ["stepwise", "vectorized"])
    def test_unconstrained_request_raises(self, paper_cb, engine):
        unit = HardwareRetrievalUnit(paper_cb)
        with pytest.raises(EncodingError):
            unit.run_batch([FunctionRequest(1, [])], engine=engine)

    def test_trace_requires_stepwise(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb, config=HardwareConfig(trace=True))
        with pytest.raises(HardwareModelError, match="stepwise"):
            unit.run_batch([paper_req], engine="vectorized")
        # "auto" transparently falls back to the stepwise walk.
        result = unit.run_batch([paper_req], engine="auto")[0]
        assert result.trace is not None
        assert result.trace.total_cycles() == result.cycles


class TestSoftwareDifferential:
    @pytest.mark.parametrize("inline", [False, True])
    @pytest.mark.parametrize("soft_multiply", [False, True])
    def test_code_generation_axes(self, generated, inline, soft_multiply):
        case_base, requests = generated
        cost_model = (
            microblaze_soft_multiply_model() if soft_multiply else microblaze_cost_model()
        )
        unit = SoftwareRetrievalUnit(
            case_base, cost_model=cost_model, inline_helpers=inline
        )
        for stepwise, vectorized in zip(
            unit.run_batch(requests, engine="stepwise"),
            unit.run_batch(requests, engine="vectorized"),
        ):
            assert_software_identical(stepwise, vectorized)

    def test_paper_example(self, paper_cb, paper_req):
        unit = SoftwareRetrievalUnit(paper_cb)
        stepwise = unit.run_batch([paper_req], engine="stepwise")[0]
        vectorized = unit.run_batch([paper_req], engine="vectorized")[0]
        assert_software_identical(stepwise, vectorized)

    @pytest.mark.parametrize("engine", ["stepwise", "vectorized"])
    def test_missing_bounds_entry_raises_same_message(self, paper_cb, engine):
        unit = SoftwareRetrievalUnit(paper_cb)
        with pytest.raises(SoftwareModelError, match="attribute 5 has no supplemental"):
            unit.run_batch([FunctionRequest(1, [(5, 3)])], engine=engine)

    def test_empty_type_parity(self, paper_cb):
        paper_cb.add_type(9, name="empty")
        request = FunctionRequest(9, [(1, 16)])
        unit = SoftwareRetrievalUnit(paper_cb)
        assert_software_identical(
            unit.run_batch([request], engine="stepwise")[0],
            unit.run_batch([request], engine="vectorized")[0],
        )


class TestSpeedupParity:
    """The paper's E4 ratio is engine independent (cycle counts are exact)."""

    def test_hw_vs_sw_ratio_identical_across_engines(self, generated):
        case_base, requests = generated
        hardware = HardwareRetrievalUnit(case_base)
        software = SoftwareRetrievalUnit(case_base)
        for engine in ("stepwise", "vectorized"):
            hw = hardware.run_batch(requests, engine=engine)
            sw = software.run_batch(requests, engine=engine)
            ratios = [s.cycles / h.cycles for h, s in zip(hw, sw)]
            assert all(4.0 < ratio < 14.0 for ratio in ratios)
        # and the per-request cycle counts match exactly between engines
        assert [r.cycles for r in hardware.run_batch(requests, engine="stepwise")] == [
            r.cycles for r in hardware.run_batch(requests, engine="vectorized")
        ]


class TestCaching:
    def test_request_cache_reused_and_invalidated(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb)
        other = FunctionRequest(2, [(1, 16), (4, 40)])
        first = unit.run(paper_req)
        unit.run(other)
        plans = unit.pricing_image().plans
        assert len(plans) == 2
        plan = plans[paper_req.signature()]
        kept = plans[other.signature()]
        second = unit.run(paper_req)
        assert len(plans) == 2
        assert plans[paper_req.signature()] is plan
        assert first.cycles == second.cycles
        paper_cb.add_implementation(
            1, Implementation(8, ExecutionTarget.DSP, {1: 16, 2: 0, 3: 1, 4: 40})
        )
        third = unit.run(paper_req)
        assert third.best_id == 8  # the refreshed image sees the new variant
        # The window drops the plans of the type it touches, and only those.
        assert unit.pricing_image().plans is plans
        assert len(plans) == 2
        assert plans[other.signature()] is kept
        assert plans[paper_req.signature()] is not plan
        assert plans[paper_req.signature()].encoded == plan.encoded

    @pytest.mark.parametrize("n_best", [1, 3])
    def test_weights_either_side_of_a_rounding_midpoint_get_their_own_plans(
        self, n_best
    ):
        """Adjacent doubles either side of the UQ0.16 midpoint 1.5/65536
        encode to weight words 1 and 2; a unit that saw one first must still
        answer the other as a fresh unit does."""
        midpoint = 1.5 / 65536
        requests = [
            FunctionRequest(
                1, [(1, 16, weight), (3, 1, 0.5), (4, 40, 0.5)], normalize_weights=False
            )
            for weight in (math.nextafter(midpoint, 0.0), midpoint)
        ]
        assert [encode_request(r).words[3] for r in requests] == [1, 2]
        config = HardwareConfig(n_best=n_best)
        for first, second in (requests, requests[::-1]):
            unit = HardwareRetrievalUnit(paper_case_base(), config=config)
            unit.run(first)
            unit.predict_cycles([first])
            fresh = HardwareRetrievalUnit(paper_case_base(), config=config)
            observed, expected = unit.run(second), fresh.run(second)
            assert observed.best_similarity_raw == expected.best_similarity_raw
            assert observed.ranked == expected.ranked
            assert observed.statistics == expected.statistics
            assert unit.predict_cycles([second]) == fresh.predict_cycles([second])
            assert unit.encoded_request_words(second) == encode_request(second).words

    def test_columnar_cache_follows_revision(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb)
        tables = unit.pricing_image().tables
        assert tables is paper_cb.type_tables
        table = tables.table(1)
        paper_cb.add_implementation(
            1, Implementation(8, ExecutionTarget.DSP, {1: 16, 2: 0, 3: 1, 4: 40})
        )
        assert unit.pricing_image().tables.table(1) is table  # patched in place
        assert table.implementation_count == 4
        stepwise = unit.run_batch([paper_req], engine="stepwise")[0]
        vectorized = unit.run_batch([paper_req], engine="vectorized")[0]
        assert_hardware_identical(stepwise, vectorized)

    def test_software_unit_follows_revision(self, paper_cb, paper_req):
        unit = SoftwareRetrievalUnit(paper_cb)
        unit.run(paper_req)
        paper_cb.add_implementation(
            1, Implementation(8, ExecutionTarget.DSP, {1: 16, 2: 0, 3: 1, 4: 40})
        )
        assert unit.run_batch([paper_req], engine="vectorized")[0].best_id == 8
        assert_software_identical(
            unit.run_batch([paper_req], engine="stepwise")[0],
            unit.run_batch([paper_req], engine="vectorized")[0],
        )

    def test_request_ram_is_built_only_for_the_stepwise_walk(
        self, paper_cb, paper_req, monkeypatch
    ):
        from repro.memmap.request_list import EncodedRequest

        unit = HardwareRetrievalUnit(paper_cb, config=HardwareConfig(n_best=2))
        golden = unit.run(paper_req)

        def no_ram(self, name="Req-MEM"):
            raise AssertionError("the vectorized engine must not build a Req-MEM")

        monkeypatch.setattr(EncodedRequest, "build_ram", no_ram)
        # A copy has its own image, so it starts without plans.
        fresh = HardwareRetrievalUnit(paper_cb.copy(), config=HardwareConfig(n_best=2))
        assert len(fresh.pricing_image().plans) == 0
        assert fresh.predict_cycles([paper_req]) == [golden.cycles]
        assert fresh.run_batch([paper_req])[0].statistics == golden.statistics
        assert len(fresh.pricing_image().plans) == 1
        with pytest.raises(AssertionError, match="Req-MEM"):
            fresh.run(paper_req)

    def test_request_cache_capacity_is_bounded(self, small_generator, monkeypatch):
        from repro.memmap import image as image_module

        case_base = small_generator.case_base()
        unit = HardwareRetrievalUnit(case_base)
        monkeypatch.setattr(image_module, "PLAN_CAPACITY", 4)
        requests = [small_generator.request(salt=salt, attribute_count=3) for salt in range(9)]
        for request in requests:
            unit.run(request)
        plans = unit.pricing_image().plans
        assert len(plans) <= 4
        assert requests[-1].signature() in plans


class TestEngineResolution:
    def test_resolve_names_and_instances(self):
        assert isinstance(resolve_cycle_engine("stepwise"), StepwiseCycleEngine)
        assert isinstance(resolve_cycle_engine("vectorized"), VectorizedCycleEngine)
        assert isinstance(resolve_cycle_engine("auto"), VectorizedCycleEngine)
        assert isinstance(
            resolve_cycle_engine("auto", prefer_vectorized=False), StepwiseCycleEngine
        )
        engine = StepwiseCycleEngine()
        assert resolve_cycle_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError, match="unknown cycle engine"):
            resolve_cycle_engine("warp")

    def test_columnar_image_matches_word_image(self, paper_cb, tables_match_words):
        unit = HardwareRetrievalUnit(paper_cb)
        tables_match_words(unit)
        image = unit.pricing_image()
        tree = image.image.tree
        total = sum(image.tables.table(t).implementation_count for t in image.positions)
        assert total == tree.implementation_count
        supplemental = image.image.supplemental
        assert image.supplemental_ids.shape[0] == len(supplemental.reciprocals)
        assert image.supplemental_index == {
            attribute_id: position
            for position, attribute_id in enumerate(sorted(supplemental.reciprocals))
        }


class TestConfigurationSweep:
    """One full cartesian sweep on a small case base (the heavy differential)."""

    def test_all_axes_exact(self, small_generator):
        case_base = small_generator.case_base()
        requests = [small_generator.request(salt=salt, attribute_count=4) for salt in range(4)]
        axes = itertools.product(
            [False, True], [False, True], [False, True], [False, True], [1, 4]
        )
        for wide, pipelined, cache, divider, n_best in axes:
            unit = HardwareRetrievalUnit(
                case_base,
                config=HardwareConfig(
                    wide_attribute_fetch=wide,
                    pipelined_datapath=pipelined,
                    cache_reciprocals=cache,
                    use_divider=divider,
                    n_best=n_best,
                ),
            )
            for stepwise, vectorized in zip(
                unit.run_batch(requests, engine="stepwise"),
                unit.run_batch(requests, engine="vectorized"),
            ):
                assert_hardware_identical(stepwise, vectorized)


class TestPredictCycles:
    """The cycles-only prediction path equals the full runs, on every engine."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("n_best", [1, 3, 8])
    def test_optimisation_axes(self, generated, wide, pipelined, cache, n_best):
        case_base, requests = generated
        unit = HardwareRetrievalUnit(
            case_base,
            config=HardwareConfig(
                wide_attribute_fetch=wide,
                pipelined_datapath=pipelined,
                cache_reciprocals=cache,
                n_best=n_best,
            ),
        )
        golden = [result.cycles for result in unit.run_batch(requests, engine="stepwise")]
        assert unit.predict_cycles(requests, engine="vectorized") == golden
        assert unit.predict_cycles(requests, engine="stepwise") == golden

    @pytest.mark.parametrize("restart", [False, True])
    @pytest.mark.parametrize("divider", [False, True])
    def test_design_alternative_axes(self, generated, restart, divider):
        case_base, requests = generated
        unit = HardwareRetrievalUnit(
            case_base,
            config=HardwareConfig(
                restart_attribute_search=restart,
                use_divider=divider,
            ),
        )
        golden = [result.cycles for result in unit.run_batch(requests, engine="stepwise")]
        assert unit.predict_cycles(requests, engine="vectorized") == golden

    def test_paper_example(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb)
        assert unit.predict_cycles([paper_req]) == [unit.run(paper_req).cycles]

    def test_trace_requires_stepwise(self, paper_cb, paper_req):
        unit = HardwareRetrievalUnit(paper_cb, config=HardwareConfig(trace=True))
        with pytest.raises(HardwareModelError, match="stepwise"):
            unit.predict_cycles([paper_req], engine="vectorized")


class TestSoftwarePredictCycles:
    """The software cycles-only path equals the full runs, on every engine."""

    @pytest.mark.parametrize("inline", [False, True])
    @pytest.mark.parametrize("soft_multiply", [False, True])
    def test_code_generation_axes(self, generated, inline, soft_multiply):
        case_base, requests = generated
        cost_model = (
            microblaze_soft_multiply_model() if soft_multiply else microblaze_cost_model()
        )
        unit = SoftwareRetrievalUnit(
            case_base, cost_model=cost_model, inline_helpers=inline
        )
        golden = [result.cycles for result in unit.run_batch(requests, engine="stepwise")]
        assert unit.predict_cycles(requests, engine="vectorized") == golden
        assert unit.predict_cycles(requests, engine="stepwise") == golden

    def test_paper_example(self, paper_cb, paper_req):
        unit = SoftwareRetrievalUnit(paper_cb)
        assert unit.predict_cycles([paper_req]) == [unit.run(paper_req).cycles]
