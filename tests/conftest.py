"""Shared fixtures of the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CaseBase,
    FunctionRequest,
    RetrievalEngine,
    paper_case_base,
    paper_request,
)
from repro.core.columnar import PAD_ID
from repro.memmap.words import END_OF_LIST
from repro.tools import CaseBaseGenerator, GeneratorSpec


@pytest.fixture
def paper_cb() -> CaseBase:
    """The worked example case base of the paper (Fig. 3)."""
    return paper_case_base()


@pytest.fixture
def paper_req() -> FunctionRequest:
    """The FIR-equalizer request of the paper (Fig. 3)."""
    return paper_request()


@pytest.fixture
def paper_engine(paper_cb: CaseBase) -> RetrievalEngine:
    """Reference retrieval engine over the paper's case base."""
    return RetrievalEngine(paper_cb)


@pytest.fixture
def small_generator() -> CaseBaseGenerator:
    """A small random case-base generator for fast cross-model tests."""
    return CaseBaseGenerator(
        GeneratorSpec(
            type_count=4,
            implementations_per_type=5,
            attributes_per_implementation=6,
            attribute_type_count=8,
            value_range=(0, 500),
        ),
        seed=42,
    )


@pytest.fixture
def small_case_base(small_generator: CaseBaseGenerator) -> CaseBase:
    """A generated case base matching :func:`small_generator`."""
    return small_generator.case_base()


def assert_tables_match_words(unit) -> None:
    """The shared type tables equal tables decoded from the CB-MEM words
    ``unit`` reads (the case base's one encoded image).

    Walks the shared word list through the tree's address map: the level-0
    order gives each type's position, each level-1 list the implementation
    IDs, each level-2 list the ``(attribute ID, value)`` words.
    """
    image = unit.pricing_image()
    tree = image.image.tree
    words = image.words
    assert words[: image.supplemental_base] == list(tree.words)
    address_map = tree.address_map
    level0 = []
    index = address_map.type_list
    while words[index] != END_OF_LIST:
        level0.append(int(words[index]))
        index += 2
    assert image.positions == {type_id: position for position, type_id in enumerate(level0)}
    lists: dict = {}
    for (type_id, implementation_id), address in address_map.attribute_lists.items():
        entries = {}
        while words[address] != END_OF_LIST:
            entries[int(words[address])] = int(words[address + 1])
            address += 2
        lists.setdefault(type_id, {})[implementation_id] = entries
    for type_id in level0:
        rows = [lists.get(type_id, {})[i] for i in sorted(lists.get(type_id, {}))]
        ids = sorted({a for entries in rows for a in entries}) + [PAD_ID]
        present = np.array([[a in entries for entries in rows] for a in ids], dtype=bool)
        values = np.array(
            [[entries.get(a, 0) for entries in rows] for a in ids], dtype=np.float64
        )
        present = present.reshape(len(ids), len(rows))
        holders = present.sum(axis=1)
        expected = {
            "impl_ids": np.array(sorted(lists.get(type_id, {})), dtype=np.int64),
            "attribute_ids": np.array(ids, dtype=np.int64),
            "present": present,
            "values": values.reshape(len(ids), len(rows)),
            "holders": holders,
            "below": np.concatenate([[0], np.cumsum(holders)[:-1]]),
        }
        table = image.tables.table(type_id)
        assert [i.implementation_id for i in table.implementations] == (
            expected["impl_ids"].tolist()
        )
        for name, array in expected.items():
            live = getattr(table, name)
            assert live.dtype == array.dtype or name in ("holders", "below"), name
            assert np.array_equal(live, array), (type_id, name)


@pytest.fixture(scope="session")
def tables_match_words():
    """:func:`assert_tables_match_words` (session-scoped: usable under hypothesis)."""
    return assert_tables_match_words
