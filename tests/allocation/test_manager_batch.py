"""Batch allocation and batch retrieval through the allocation manager."""

import random

import pytest

from repro.allocation import AllocationManager, AllocationStatus
from repro.core import FunctionRequest, paper_case_base, paper_request
from repro.platform import (
    FpgaDevice,
    LocalRuntimeController,
    SlotSpec,
    SystemResourceState,
    audio_dsp,
    host_cpu,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec


def build_system():
    return SystemResourceState(
        [
            LocalRuntimeController(FpgaDevice("fpga0", SlotSpec(4, 1000), idle_power_mw=0.0)),
            LocalRuntimeController(host_cpu("cpu0")),
            LocalRuntimeController(audio_dsp("dsp0")),
        ]
    )


def build_manager(**kwargs):
    return AllocationManager(paper_case_base(), build_system(), **kwargs)


class TestManagerBackendSelection:
    def test_vectorized_backend_accepted(self):
        manager = build_manager(retrieval_backend="vectorized")
        assert manager.engine.backend_name == "vectorized"
        decision = manager.allocate(paper_request())
        assert decision.succeeded
        assert decision.implementation.implementation_id == 2

    def test_naive_alias_accepted(self):
        assert build_manager(retrieval_backend="naive").engine.backend_name == "naive"

    def test_vectorized_and_reference_make_identical_decisions(self):
        requests = [
            paper_request(),
            FunctionRequest(1, [(1, 8), (4, 20)], requester="app"),
            FunctionRequest(2, [(1, 16), (2, 1)], requester="app"),
        ]
        decisions = {}
        for backend in ("reference", "vectorized"):
            manager = build_manager(retrieval_backend=backend)
            decisions[backend] = [manager.allocate(request) for request in requests]
        for reference, vectorized in zip(decisions["reference"], decisions["vectorized"]):
            assert reference.status == vectorized.status
            assert reference.similarity == vectorized.similarity
            if reference.implementation is not None:
                assert (
                    reference.implementation.implementation_id
                    == vectorized.implementation.implementation_id
                )


class TestRetrieveBatch:
    def test_defaults_mirror_manager_settings(self):
        manager = build_manager(retrieval_backend="vectorized", n_candidates=2)
        results = manager.retrieve_batch([paper_request(), paper_request()])
        for result in results:
            assert len(result) == 2
            assert result.best_id == 2

    def test_explicit_threshold(self):
        manager = build_manager(retrieval_backend="vectorized")
        (result,) = manager.retrieve_batch([paper_request()], threshold=0.9)
        assert result.ids() == [2]


class TestAllocateBatch:
    def test_batch_matches_sequential_allocation(self):
        requests = [
            FunctionRequest(1, [(1, 16), (3, 1), (4, 40)], requester="audio"),
            FunctionRequest(2, [(1, 16), (2, 1)], requester="video"),
            FunctionRequest(1, [(1, 8), (4, 20)], requester="audio"),
        ]
        sequential_manager = build_manager(retrieval_backend="vectorized")
        sequential = [sequential_manager.allocate(request) for request in requests]
        batch_manager = build_manager(retrieval_backend="vectorized")
        batched = batch_manager.allocate_batch(requests)
        assert len(batched) == len(sequential)
        for one, many in zip(sequential, batched):
            assert one.status == many.status
            assert one.similarity == many.similarity
            assert one.device_name == many.device_name

    def test_batch_matches_sequential_bit_for_bit_across_constraint_orders(self):
        """The same constraints listed in another order normalise to weights
        that differ in the last bits; each request keeps its own doubles."""
        rng = random.Random(0)
        weights = dict(zip((1, 3, 4), (0.1, 0.05, 0.3)))
        for _ in range(20):
            values = {1: rng.randint(4, 32), 3: rng.randint(0, 1), 4: rng.randint(8, 96)}
            order = rng.sample(sorted(values), 3)
            requests = [
                FunctionRequest(
                    1, [(a, values[a], weights[a]) for a in ids], requester=requester
                )
                for ids, requester in (((1, 3, 4), "first"), (order, "second"))
            ]
            manager = build_manager(retrieval_backend="vectorized")
            sequential = [manager.allocate(request) for request in requests]
            batched = build_manager(retrieval_backend="vectorized").allocate_batch(requests)
            for one, many in zip(sequential, batched):
                assert one.status == many.status
                assert one.similarity == many.similarity
                assert [(c.implementation_id, c.similarity) for c in one.candidates] == [
                    (c.implementation_id, c.similarity) for c in many.candidates
                ]

    def test_unknown_type_is_rejected_per_request_not_raised(self):
        manager = build_manager(retrieval_backend="vectorized")
        decisions = manager.allocate_batch(
            [paper_request(), FunctionRequest(77, [(1, 16)], requester="x")]
        )
        assert decisions[0].succeeded
        assert decisions[1].status is AllocationStatus.REJECTED_UNKNOWN_TYPE

    def test_repeated_request_in_batch_hits_bypass(self):
        manager = build_manager(retrieval_backend="vectorized")
        first, second = manager.allocate_batch([paper_request(), paper_request()])
        assert first.status is AllocationStatus.ALLOCATED
        assert second.status is AllocationStatus.ALLOCATED_VIA_BYPASS

    def test_duplicate_signature_requests_prefetched_once(self):
        manager = build_manager(retrieval_backend="vectorized")
        duplicates = [paper_request() for _ in range(5)]
        prefetched = manager.prefetch_candidates(duplicates)
        # All five indices get (copies of) the single retrieval's candidates.
        assert sorted(prefetched) == [0, 1, 2, 3, 4]
        ids = [[c.implementation_id for c in candidates] for candidates in prefetched.values()]
        assert all(entry == ids[0] for entry in ids)
        decisions = manager.allocate_batch(duplicates)
        assert decisions[0].status is AllocationStatus.ALLOCATED
        assert all(
            d.status is AllocationStatus.ALLOCATED_VIA_BYPASS for d in decisions[1:]
        )

    def test_bypass_served_requests_are_not_prefetched(self):
        manager = build_manager(retrieval_backend="vectorized")
        manager.allocate(paper_request())
        hits_before = manager.bypass.statistics.hits
        prefetched = manager.prefetch_candidates([paper_request(), paper_request()])
        # The token peek neither prefetches nor perturbs the hit/miss counters.
        assert prefetched == {}
        assert manager.bypass.statistics.hits == hits_before
        decisions = manager.allocate_batch([paper_request()])
        assert decisions[0].status is AllocationStatus.ALLOCATED_VIA_BYPASS

    def test_unscreenable_scoring_error_matches_sequential_semantics(self):
        """A constrained attribute that implementations describe but the bounds
        table omits raises SchemaError during scoring; batch allocation must
        still serve the earlier requests before the error surfaces, exactly
        like sequential calls."""
        from repro.core import (
            BoundsTable,
            CaseBase,
            ExecutionTarget,
            Implementation,
            SchemaError,
        )

        def build_case_base():
            bounds = BoundsTable()
            bounds.define(1, 0, 100)  # attribute 2 deliberately unregistered
            case_base = CaseBase(bounds=bounds)
            case_base.add_type(1).add(
                Implementation(1, ExecutionTarget.GPP, {1: 50, 2: 7})
            )
            return case_base

        def run(mode):
            manager = AllocationManager(
                build_case_base(), build_system(), retrieval_backend="vectorized"
            )
            good = FunctionRequest(1, [(1, 50)], requester="x")
            bad = FunctionRequest(1, [(2, 5)], requester="x")
            with pytest.raises(SchemaError):
                if mode == "batch":
                    manager.allocate_batch([good, bad])
                else:
                    manager.allocate(good)
                    manager.allocate(bad)
            return len(manager.active_allocations())

        assert run("batch") == run("sequential") == 1

    def test_hardware_backend_still_works_without_prefetch(self):
        manager = build_manager(retrieval_backend="hardware")
        decisions = manager.allocate_batch([paper_request()])
        assert decisions[0].succeeded
        assert decisions[0].retrieval_cycles is not None

    @pytest.mark.parametrize("cycle_engine", ["stepwise", "vectorized", "auto"])
    def test_hardware_batch_matches_sequential_decisions(self, cycle_engine):
        requests = [
            paper_request(),
            FunctionRequest(1, [(1, 8), (4, 20)], requester="app"),
            FunctionRequest(2, [(1, 16), (2, 1)], requester="app"),
            paper_request(),
        ]
        batch_manager = build_manager(
            retrieval_backend="hardware", cycle_engine=cycle_engine
        )
        sequential_manager = build_manager(
            retrieval_backend="hardware", cycle_engine=cycle_engine
        )
        batched = batch_manager.allocate_batch(requests)
        sequential = [sequential_manager.allocate(request) for request in requests]
        for batch_decision, sequential_decision in zip(batched, sequential):
            assert batch_decision.status == sequential_decision.status
            assert batch_decision.similarity == sequential_decision.similarity
            assert batch_decision.retrieval_cycles == sequential_decision.retrieval_cycles

    def test_hardware_batch_prefetch_populates_candidates(self):
        manager = build_manager(retrieval_backend="hardware")
        requests = [paper_request(), FunctionRequest(2, [(1, 16), (2, 1)], requester="x")]
        prefetched = manager.prefetch_candidates(requests)
        assert set(prefetched) == {0, 1}
        assert prefetched[0][0].implementation_id == 2

    def test_unknown_cycle_engine_rejected(self):
        from repro.core.exceptions import AllocationError

        with pytest.raises(AllocationError, match="unknown cycle engine"):
            build_manager(cycle_engine="warp")

    def test_large_random_batch(self):
        generator = CaseBaseGenerator(
            GeneratorSpec(type_count=4, implementations_per_type=6,
                          attributes_per_implementation=5, attribute_type_count=8),
            seed=6,
        )
        manager = AllocationManager(
            generator.case_base(), build_system(), retrieval_backend="vectorized"
        )
        requests = [
            generator.request(salt=salt, attribute_count=4) for salt in range(24)
        ]
        decisions = manager.allocate_batch(requests)
        assert len(decisions) == 24
        assert manager.statistics.requests >= 24
