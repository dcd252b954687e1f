"""Tests for the JSON / memh / C-header export tooling."""

import pytest

from repro.core import ReproError, RetrievalEngine, paper_bounds, paper_case_base, paper_request
from repro.hardware import HardwareRetrievalUnit
from repro.memmap import CaseBaseImage
from repro.tools import (
    bounds_from_json,
    bounds_to_json,
    case_base_from_json,
    case_base_to_json,
    export_memory_images,
    load_case_base,
    request_from_json,
    request_to_json,
    save_case_base,
    words_from_memh,
    words_to_c_header,
    words_to_memh,
)
from repro.tools.export import words_to_c_header as c_header  # alias for identifier test


class TestJsonRoundTrips:
    def test_case_base_round_trip_preserves_retrieval_results(self, paper_cb, paper_req):
        rebuilt = case_base_from_json(case_base_to_json(paper_cb))
        original = RetrievalEngine(paper_cb).retrieve_n_best(paper_req, 3)
        recovered = RetrievalEngine(rebuilt).retrieve_n_best(paper_req, 3)
        assert original.ids() == recovered.ids()
        assert [round(e.similarity, 6) for e in original] == [
            round(e.similarity, 6) for e in recovered
        ]

    def test_case_base_file_round_trip(self, tmp_path, paper_cb):
        path = save_case_base(paper_cb, tmp_path / "cb.json")
        loaded = load_case_base(path)
        assert loaded.type_ids() == paper_cb.type_ids()
        assert loaded.count_implementations() == paper_cb.count_implementations()

    def test_invalid_case_base_json_rejected(self):
        with pytest.raises(ReproError):
            case_base_from_json("{not json")

    def test_bounds_round_trip(self):
        bounds = paper_bounds()
        rebuilt = bounds_from_json(bounds_to_json(bounds))
        assert rebuilt.ids() == bounds.ids()
        for attribute_id in bounds.ids():
            assert rebuilt.dmax(attribute_id) == bounds.dmax(attribute_id)

    def test_request_round_trip(self, paper_req):
        rebuilt = request_from_json(request_to_json(paper_req))
        assert rebuilt.type_id == paper_req.type_id
        assert rebuilt.values() == paper_req.values()
        assert rebuilt.requester == paper_req.requester
        for attribute_id, weight in paper_req.weights().items():
            assert rebuilt.weights()[attribute_id] == pytest.approx(weight)

    def test_invalid_request_json_rejected(self):
        with pytest.raises(ReproError):
            request_from_json("[1, 2")


class TestMemhAndCHeader:
    def test_memh_round_trip(self, paper_cb):
        image = CaseBaseImage(paper_cb)
        ram, _ = image.build_case_base_ram()
        text = words_to_memh(ram.dump(), comment="CB-MEM")
        assert text.startswith("// CB-MEM")
        assert words_from_memh(text) == ram.dump()

    def test_memh_rejects_bad_words(self):
        with pytest.raises(ReproError):
            words_from_memh("zzzz\n")
        with pytest.raises(ReproError):
            words_from_memh("10000\n")  # 0x10000 exceeds 16 bits

    def test_c_header_structure(self):
        header = words_to_c_header([1, 2, 0xFFFF], "req_mem", comment="request image")
        assert "#include <stdint.h>" in header
        assert "REQ_MEM_WORDS 3u" in header
        assert "0xffff" in header

    def test_c_header_rejects_bad_identifier(self):
        with pytest.raises(ReproError):
            c_header([1], "not a name")


class TestExportMemoryImages:
    def test_exports_drive_identical_hardware_behaviour(self, tmp_path, paper_cb, paper_req):
        """The exported words are exactly the ones the hardware model reads."""
        outputs = export_memory_images(paper_cb, paper_req, tmp_path, formats=["memh"])
        exported_cb = words_from_memh((outputs["case_base_memh"]).read_text())
        exported_req = words_from_memh((outputs["request_memh"]).read_text())
        unit = HardwareRetrievalUnit(paper_cb)
        assert exported_cb == unit.case_base_ram.dump()
        assert tuple(exported_req) == unit.encoded_request_words(paper_req)

    def test_exports_all_requested_formats(self, tmp_path, paper_cb, paper_req):
        outputs = export_memory_images(paper_cb, paper_req, tmp_path / "out", prefix="fir")
        assert set(outputs) == {"case_base_memh", "case_base_c", "request_memh", "request_c"}
        for path in outputs.values():
            assert path.exists()
            assert path.name.startswith("fir_")

    def test_request_is_optional(self, tmp_path, paper_cb):
        outputs = export_memory_images(paper_cb, None, tmp_path, formats=["c"])
        assert set(outputs) == {"case_base_c"}

    def test_unknown_format_rejected(self, tmp_path, paper_cb):
        with pytest.raises(ReproError):
            export_memory_images(paper_cb, None, tmp_path, formats=["bin"])
