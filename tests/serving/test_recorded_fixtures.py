"""Serving behaviour pinned by fixtures recorded before the admission fold.

The fixtures under ``tests/fixtures/`` were recorded by the two-server
single-node engine and the separate cluster router that preceded the one
admission gate:

* ``legacy_single_node_capture.json`` -- a single-node daemon capture
  (admit, degrade and reject under per-request deadlines, plus a ``/learn``);
  it must replay byte-identically, exactly as ``repro serve-trace
  --capture`` compares it.
* ``legacy_cluster_capture.json`` -- a 2-FPGA + 1-CPU cluster daemon capture
  under a deadline.  Decisions, workers, cycles, rankings and reasons must be
  identical; ``queue_us``/``latency_us`` may move in the last bits only,
  because occupancy is now kept relative to the batch close time (the
  two-server arithmetic) instead of as absolute start times.
* ``legacy_single_node_journal_state.json`` -- a capture resumed from a
  single-node journal ``engine_state`` in the old two-server shape; it must
  restore into the router's state shape and price the next batches exactly
  as before.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import CaseBase
from repro.serving import ServingSpec, replay_capture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SINGLE = FIXTURES / "legacy_single_node_capture.json"
CLUSTER = FIXTURES / "legacy_cluster_capture.json"
JOURNAL = FIXTURES / "legacy_single_node_journal_state.json"


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _replayed(document):
    """Replayed records as a capture reader sees them (the CLI's form)."""
    report = replay_capture(document)
    return [json.loads(json.dumps(record.to_dict())) for record in report.served]


@pytest.mark.parametrize("path", [SINGLE, JOURNAL], ids=["capture", "journal"])
def test_single_node_fixture_replays_byte_identically(path):
    document = _load(path)
    assert _replayed(document) == document["responses"]


@pytest.mark.parametrize("path", [SINGLE, JOURNAL], ids=["capture", "journal"])
def test_cli_capture_replay_reports_no_mismatch(path, capsys):
    assert main(["serve-trace", "--capture", str(path)]) == 0
    assert "bit-identical for" in capsys.readouterr().out


def test_single_node_fixture_covers_the_whole_ladder():
    document = _load(SINGLE)
    statuses = {record["status"] for record in document["responses"]}
    assert {"served_hardware", "served_software", "rejected_deadline"} <= statuses
    assert document["learn_events"]
    assert all("worker" not in record for record in document["responses"])


def test_cluster_fixture_matches_up_to_last_bits():
    document = _load(CLUSTER)
    recorded = document["responses"]
    replayed = _replayed(document)
    assert len(replayed) == len(recorded)
    exact = ("index", "batch", "status", "wait_us", "service_us", "cycles",
             "worker", "ranking", "reason")
    for mine, theirs in zip(replayed, recorded):
        assert set(mine) == set(theirs)
        assert {key: mine.get(key) for key in exact} == {
            key: theirs.get(key) for key in exact
        }
        assert mine["queue_us"] == pytest.approx(theirs["queue_us"], abs=1e-6)
        if theirs["latency_us"] is None:
            assert mine["latency_us"] is None
        else:
            assert mine["latency_us"] == pytest.approx(
                theirs["latency_us"], abs=1e-6
            )
    workers = {record.get("worker") for record in recorded}
    assert {"fpga0", "fpga1", "cpu0"} <= workers


def test_legacy_journal_state_restores_into_the_router_shape():
    document = _load(JOURNAL)
    legacy = document["engine_state"]
    assert set(legacy) == {"admission"}
    spec = ServingSpec.from_wire(document["spec"])
    engine = spec.build_engine(CaseBase.from_dict(document["case_base"]))
    session = engine.session()
    session.restore_state(legacy)
    state = session.state_snapshot()
    assert set(state) == {"router", "ports"}
    assert state["router"]["free_at_us"] == {
        "hardware": legacy["admission"]["hardware_free_at_us"],
        "software": legacy["admission"]["software_free_at_us"],
    }
    # The restored backlog is what prices the first resumed batch.
    first = document["responses"][0]
    assert first["queue_us"] > 0 or first["status"] == "rejected_deadline"
