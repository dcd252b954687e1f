"""Unit tests for the combined case-base memory image (CB-MEM / Req-MEM)."""

import pytest

from repro.allocation import AllocationManager
from repro.core import ExecutionTarget, Implementation, paper_request
from repro.hardware import HardwareConfig, HardwareRetrievalUnit
from repro.memmap import (
    CaseBaseImage,
    END_OF_LIST,
    build_memories,
    decode_request,
    decode_supplemental,
    decode_tree,
    request_size_bytes,
)
from repro.platform import (
    DeviceFleet,
    LocalRuntimeController,
    SystemResourceState,
    host_cpu,
)
from repro.software import SoftwareRetrievalUnit
from repro.tools import CaseBaseGenerator, table3_spec


class TestCaseBaseImage:
    def test_case_base_ram_concatenates_tree_and_supplemental(self, paper_cb):
        image = CaseBaseImage(paper_cb)
        ram, supplemental_base = image.build_case_base_ram()
        assert supplemental_base == image.tree.size_words
        words = ram.dump()
        decoded_tree = decode_tree(words[:supplemental_base])
        assert set(decoded_tree) == {1, 2}
        decoded_bounds = decode_supplemental(words[supplemental_base:])
        assert decoded_bounds.ids() == [1, 2, 3, 4]

    def test_request_ram_is_padded_for_wide_fetch(self, paper_cb):
        image = CaseBaseImage(paper_cb)
        ram, encoded = image.build_request_ram(paper_request())
        assert len(ram) == len(encoded.words) + 1
        assert ram.peek(len(encoded.words) - 1) == END_OF_LIST
        decoded = decode_request(encoded.words)
        assert decoded.values() == paper_request().values()

    def test_footprint_default_request_is_worst_case(self, paper_cb):
        footprint = CaseBaseImage(paper_cb).footprint()
        assert footprint.request_bytes == request_size_bytes(10) == 64
        assert footprint.case_base_bytes == footprint.tree_bytes + footprint.supplemental_bytes
        assert footprint.total_bytes == footprint.case_base_bytes + footprint.request_bytes

    def test_footprint_with_explicit_request(self, paper_cb):
        footprint = CaseBaseImage(paper_cb).footprint(paper_request())
        assert footprint.request_bytes == (1 + 3 * 3 + 1) * 2

    def test_compact_footprint_is_smaller(self, paper_cb):
        footprint = CaseBaseImage(paper_cb).footprint()
        assert footprint.compact_tree_bytes < footprint.tree_bytes
        assert footprint.compact_case_base_bytes < footprint.case_base_bytes

    def test_table3_footprint_shape(self):
        """Table 3: case base of a few kB, request 64 bytes, a couple of BRAMs."""
        case_base = CaseBaseGenerator(table3_spec(), seed=5).case_base()
        footprint = CaseBaseImage(case_base).footprint()
        assert footprint.request_bytes == 64
        # The plain pairwise encoding is ~7 kB, the compact one ~3.7 kB; the
        # paper's 4.5 kB sits between the two.
        assert 6_000 < footprint.tree_bytes < 8_000
        assert 3_000 < footprint.compact_tree_bytes < 4_608
        assert footprint.bram_blocks() >= 2


class TestBuildMemories:
    def test_build_memories_returns_consistent_objects(self, paper_cb):
        ram, supplemental_base, request_ram, image = build_memories(paper_cb, paper_request())
        assert supplemental_base == image.tree.size_words
        assert request_ram.peek(0) == 1
        assert ram.peek(0) == 1


class TestSharedEncodedImage:
    """One encoded CB-MEM image per case base, read by every consumer."""

    def test_every_consumer_reads_one_image(self, paper_cb):
        fleet = DeviceFleet.build(paper_cb, hardware_devices=1, software_devices=0)
        word_count = fleet.image_word_count()
        image = paper_cb._encoded_image
        assert image is not None  # the fleet counted the shared image
        assert word_count == len(image.words) == image.word_count
        system = SystemResourceState([LocalRuntimeController(host_cpu("cpu0"))])
        manager = AllocationManager(paper_cb, system)
        consumers = (
            HardwareRetrievalUnit(paper_cb),
            SoftwareRetrievalUnit(paper_cb),
            manager._hardware_unit_current(),
        )
        for consumer in consumers:
            assert consumer.pricing_image() is image
        assert paper_cb.encoded_image is image
        assert consumers[0].case_base_ram.dump() == image.words
        copy = paper_cb.copy()
        assert copy.encoded_image is not image
        assert copy.encoded_image.words == image.words

    def test_one_window_patches_the_shared_image_once(self, paper_cb, paper_req):
        hardware = HardwareRetrievalUnit(paper_cb)
        software = SoftwareRetrievalUnit(paper_cb)
        hardware.predict_cycles([paper_req])
        software.predict_cycles([paper_req])
        tracker = hardware.pricing_image().tracker
        incremental, rebuilds = tracker.incremental_count, tracker.rebuild_count
        paper_cb.add_implementation(
            1, Implementation(8, ExecutionTarget.DSP, {1: 16, 2: 0, 3: 1, 4: 40})
        )
        hardware.predict_cycles([paper_req])
        software.predict_cycles([paper_req])
        hardware.run(paper_req)
        software.run(paper_req)
        assert tracker.incremental_count == incremental + 1
        assert tracker.rebuild_count == rebuilds

    def test_interleaved_pricing_through_the_shared_memo(self, small_generator):
        case_base = small_generator.case_base()
        # Explicit bounds: removing a type below the others is then a window
        # the image absorbs incrementally.
        case_base.bounds = case_base.derive_bounds()
        hardware = HardwareRetrievalUnit(case_base, config=HardwareConfig(n_best=2))
        software = SoftwareRetrievalUnit(case_base)
        lowest = min(case_base.type_ids())
        requests = [
            small_generator.request(type_id, salt=salt)
            for type_id in case_base.type_ids()
            if type_id != lowest
            for salt in range(3)
        ]

        def check():
            # A copy encodes its own image: an independent stepwise reference.
            snapshot = case_base.copy()
            references = {
                hardware: HardwareRetrievalUnit(snapshot, config=HardwareConfig(n_best=2)),
                software: SoftwareRetrievalUnit(snapshot),
            }
            for unit in (hardware, software, hardware, software):  # second round: hits
                golden = [r.cycles for r in unit.run_batch(requests, engine="stepwise")]
                assert unit.predict_cycles(requests) == golden
                assert golden == [
                    r.cycles
                    for r in references[unit].run_batch(requests, engine="stepwise")
                ]

        check()
        image = hardware.pricing_image()
        assert set(image.plans) == {r.signature() for r in requests}
        assert {len(plan.cycles) for plan in image.plans.values()} == {2}  # both models'
        assert len({key for plan in image.plans.values() for key in plan.cycles}) == 2
        # Removing the lowest type moves every other type up the level-0 list.
        positions = dict(image.positions)
        incremental = image.tracker.incremental_count
        case_base.remove_type(lowest)
        assert hardware.pricing_image() is image
        assert image.tracker.incremental_count == incremental + 1
        assert image.positions == {
            type_id: position - 1
            for type_id, position in positions.items()
            if type_id != lowest
        }
        assert len(image.plans) == 0
        check()
