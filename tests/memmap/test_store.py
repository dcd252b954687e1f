"""Persistent image store: round-trip fidelity, staleness, and counters.

The contract under test: a saved store reopens O(1) into *bit-identical*
serving state -- type tables, retrieval results and cycle counts
indistinguishable from a fresh encode -- and anything that could
make the on-disk artefacts lie (mutations, tampered files, other case
bases, layout bumps) must surface as ``stale``/``miss``, never as wrong
results.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import RetrievalEngine
from repro.core.case_base import ExecutionTarget, Implementation
from repro.core.exceptions import EncodingError
from repro.hardware import HardwareRetrievalUnit
from repro.memmap import CaseBaseImage, ImageStore, structure_fingerprint
from repro.memmap.store import LAYOUT_VERSION, MANIFEST_NAME
from repro.observability import MetricsRegistry, catalog
from repro.software import SoftwareRetrievalUnit
from repro.tools import CaseBaseGenerator, GeneratorSpec

SMALL_SPEC = GeneratorSpec(
    type_count=4,
    implementations_per_type=12,
    attributes_per_implementation=6,
    attribute_type_count=8,
    missing_probability=0.1,
)

#: Deep enough that the CB-MEM tree overflows 16-bit word addressing.
OVERFLOW_SPEC = GeneratorSpec(
    type_count=4,
    implementations_per_type=800,
    attributes_per_implementation=10,
    attribute_type_count=10,
)


@pytest.fixture()
def small_case_base():
    return CaseBaseGenerator(SMALL_SPEC, seed=9).case_base()


#: The stored arrays of one type table.
TABLE_ARRAYS = ("impl_ids", "attribute_ids", "present", "values", "holders", "below")


def _slim_view(result):
    return [(entry.implementation_id, entry.similarity) for entry in result.ranked]


class TestRoundTrip:
    def test_reopened_tables_match_a_fresh_encode(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        reopened = store.open(small_case_base)
        assert reopened is not None
        assert reopened.revision == small_case_base.revision
        # A copy builds its own columnar image: an independent encode.
        fresh = small_case_base.copy().type_tables
        assert set(reopened.tables) == set(small_case_base.type_ids())
        for type_id, table in reopened.tables.items():
            expected = fresh.table(type_id)
            for attribute in TABLE_ARRAYS:
                assert np.array_equal(getattr(table, attribute), getattr(expected, attribute))

    def test_adopted_matrices_serve_bit_identically(
        self, small_case_base, tmp_path, tables_match_words
    ):
        """Reopened tables retrieve and price exactly like an independent
        encode: the expected side runs on a copy of the case base, whose
        columnar image the install cannot reach."""
        generator = CaseBaseGenerator(SMALL_SPEC, seed=9)
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        reopened = store.open(small_case_base)
        independent = small_case_base.copy()
        naive = RetrievalEngine(independent, backend="naive")
        fresh = RetrievalEngine(independent, backend="vectorized")
        adopted = RetrievalEngine(small_case_base, backend="vectorized")
        assert reopened.install(adopted) is True
        assert small_case_base.type_tables.types == reopened.tables
        requests = [generator.request(salt=salt, attribute_count=4) for salt in range(6)]
        for request in requests:
            expected = fresh.retrieve_n_best(request, 5)
            observed = adopted.retrieve_n_best(request, 5)
            assert _slim_view(observed) == _slim_view(expected)
            assert _slim_view(observed) == _slim_view(naive.retrieve_n_best(request, 5))
            assert observed.statistics == expected.statistics
        # The stored holders and prefix counts feed both units' pricing.
        for unit_class in (HardwareRetrievalUnit, SoftwareRetrievalUnit):
            unit = unit_class(small_case_base)
            tables_match_words(unit)
            assert unit.predict_cycles(requests, engine="vectorized") == (
                unit.predict_cycles(requests, engine="stepwise")
            )
            assert unit.predict_cycles(requests, engine="vectorized") == (
                unit_class(independent).predict_cycles(requests, engine="vectorized")
            )

    def test_install_declines_naive_backends(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        reopened = store.open(small_case_base)
        naive = RetrievalEngine(small_case_base, backend="naive")
        assert reopened.install(naive) is False

    def test_install_declines_a_case_base_mutated_since_the_reopen(
        self, small_case_base, tmp_path
    ):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        reopened = store.open(small_case_base)
        implementation = small_case_base.get_type(1).sorted_implementations()[0]
        small_case_base.remove_implementation(1, implementation.implementation_id)
        engine = RetrievalEngine(small_case_base, backend="vectorized")
        assert reopened.install(engine) is False
        tables = small_case_base.type_tables
        for type_id, stale in reopened.tables.items():
            assert tables.table(type_id) is not stale  # nothing seeded
        request = CaseBaseGenerator(SMALL_SPEC, seed=9).request(salt=0, attribute_count=4)
        naive = RetrievalEngine(small_case_base.copy(), backend="naive")
        assert _slim_view(engine.retrieve_n_best(request, 5)) == _slim_view(
            naive.retrieve_n_best(request, 5)
        )

    def test_save_is_idempotent_and_cleans_stale_generations(
        self, small_case_base, tmp_path
    ):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        first_files = set(path.name for path in tmp_path.iterdir())
        small_case_base.add_implementation(
            1,
            Implementation(
                implementation_id=999,
                target=ExecutionTarget.GPP,
                attributes={1: 5},
            ),
        )
        store.save(small_case_base)
        second_files = set(path.name for path in tmp_path.iterdir())
        # Old-revision array files are gone once the new manifest is durable.
        assert not (second_files - {MANIFEST_NAME}) & (first_files - {MANIFEST_NAME})
        assert store.open(small_case_base) is not None


class TestStaleness:
    def test_empty_directory_is_a_miss(self, small_case_base, tmp_path):
        assert ImageStore(tmp_path).open(small_case_base) is None

    def test_mutation_turns_the_store_stale(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        implementation = small_case_base.get_type(1).sorted_implementations()[0]
        small_case_base.remove_implementation(1, implementation.implementation_id)
        assert store.open(small_case_base) is None

    def test_a_different_case_base_is_stale_even_at_equal_revision(
        self, small_case_base, tmp_path
    ):
        """Two freshly loaded dumps both sit at revision 0; the structural
        fingerprint must tell them apart."""
        other_spec = dataclasses.replace(SMALL_SPEC, implementations_per_type=13)
        other = CaseBaseGenerator(other_spec, seed=9).case_base()
        assert other.revision == small_case_base.revision
        assert structure_fingerprint(other) != structure_fingerprint(small_case_base)
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        assert store.open(other) is None

    def test_truncated_array_file_is_stale(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        manifest = store.save(small_case_base)
        victim = tmp_path / manifest["types"][0]["files"]["values"]["file"]
        victim.write_bytes(victim.read_bytes()[:-8])
        assert store.open(small_case_base) is None

    def test_layout_version_bump_is_stale(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        store.save(small_case_base)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["layout"] == LAYOUT_VERSION
        manifest["layout"] = LAYOUT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        assert store.open(small_case_base) is None

    def test_open_or_build_recovers_and_then_hits(self, small_case_base, tmp_path):
        registry = MetricsRegistry()
        store = ImageStore(tmp_path, registry=registry)
        reopened, outcome = store.open_or_build(small_case_base)
        assert outcome == "miss" and reopened is not None
        reopened, outcome = store.open_or_build(small_case_base)
        assert outcome == "hit" and reopened is not None
        counts = catalog.image_reopens(registry).values()
        assert counts[("miss",)] == 1.0
        assert counts[("hit",)] == 1.0

    def test_layout_2_store_reopens_stale_and_rebuilds(self, small_case_base, tmp_path):
        """A store written before the word files went (layout 2) is stale;
        the rebuild writes layout 3 and deletes the old word files."""
        registry = MetricsRegistry()
        store = ImageStore(tmp_path, registry=registry)
        store.save(small_case_base)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        prefix = f"r{small_case_base.revision}-"
        for part in ("tree", "supplemental"):
            (tmp_path / f"{prefix}{part}.u16").write_bytes(b"\x00\x00")
            manifest[part] = {"file": f"{prefix}{part}.u16", "words": 1, "bytes": 2}
        manifest["layout"] = 2
        manifest_path.write_text(json.dumps(manifest))
        assert store.open(small_case_base) is None
        reopened, outcome = store.open_or_build(small_case_base)
        assert outcome == "stale" and reopened is not None
        assert json.loads(manifest_path.read_text())["layout"] == LAYOUT_VERSION == 3
        assert not list(tmp_path.glob("*.u16"))
        assert catalog.image_reopens(registry).values()[("stale",)] == 2.0

    def test_reopen_counter_labels_every_outcome(self, small_case_base, tmp_path):
        registry = MetricsRegistry()
        store = ImageStore(tmp_path, registry=registry)
        store.open(small_case_base)  # miss
        store.save(small_case_base)
        store.open(small_case_base)  # hit
        implementation = small_case_base.get_type(2).sorted_implementations()[0]
        small_case_base.remove_implementation(2, implementation.implementation_id)
        store.open(small_case_base)  # stale
        counts = catalog.image_reopens(registry).values()
        assert counts == {("miss",): 1.0, ("hit",): 1.0, ("stale",): 1.0}


class TestNoWordImage:
    def test_store_writes_no_word_files(self, small_case_base, tmp_path):
        store = ImageStore(tmp_path)
        manifest = store.save(small_case_base)
        assert "tree" not in manifest and "supplemental" not in manifest
        assert not list(tmp_path.glob("*.u16"))
        reopened = store.open(small_case_base)
        assert reopened is not None
        assert not hasattr(reopened, "image")
        assert set(reopened.tables) == {
            function_type.type_id
            for function_type in small_case_base.sorted_types()
        }

    def test_overflowing_case_base_stores_its_tables(self, tmp_path):
        huge = CaseBaseGenerator(OVERFLOW_SPEC, seed=4).case_base()
        with pytest.raises(EncodingError):
            CaseBaseImage(huge)
        store = ImageStore(tmp_path)
        store.save(huge)
        reopened = store.open(huge)
        assert reopened is not None
        assert len(reopened.tables) == OVERFLOW_SPEC.type_count
