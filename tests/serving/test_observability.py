"""Observability PR gates: the no-byte-changes contract and its surfaces.

The standing invariant of the observability layer is that it *observes*:
tracing at sample rate 1.0 must leave every ranking, capture byte and
journal byte identical to an uninstrumented run.  This module holds the
differential gates plus the daemon's Prometheus/trace HTTP surfaces, the
``repro trace`` CLI, the compare-mode trace ids and the structured serve
logs.
"""

import asyncio
import http.client
import json
import logging
import re
import threading
import time

import pytest

from repro import cli
from repro.observability import ObservabilityConfig, trace_id_for
from repro.serving import (
    DaemonThread,
    ServingDaemon,
    ServingSpec,
    replay_capture,
)

PAPER_WIRE = {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}}

LEARN_EVENT = {
    "op": "add_implementation",
    "type_id": 1,
    "implementation": {
        "implementation_id": 9001,
        "target": "gpp",
        "name": "learned",
        "attributes": {"1": 16, "3": 1, "4": 40},
    },
}

#: Every non-comment Prometheus exposition line must match this.
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$'
)

DISABLED = ObservabilityConfig(enabled=False)


class Client:
    """Keep-alive client returning parsed JSON or raw text by content type."""

    def __init__(self, host, port):
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def call(self, method, path, payload=None):
        body = json.dumps(payload) if payload is not None else None
        self.connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        text = response.read().decode("utf-8")
        if "json" in (response.getheader("Content-Type") or ""):
            return response.status, json.loads(text)
        return response.status, text

    def close(self):
        self.connection.close()


def _records(report):
    return [json.loads(json.dumps(r.to_dict())) for r in report.served]


def _stable_metrics(report):
    metrics = json.loads(json.dumps(report.metrics))
    metrics.pop("wall_seconds", None)
    metrics.pop("throughput_rps", None)
    # The config section legitimately differs in its observability field.
    metrics.pop("config", None)
    return metrics


class TestDifferentialGates:
    """Tracing on vs off must not change a single served byte."""

    def test_serve_trace_bit_identical_with_tracing(self):
        spec = ServingSpec(random=24, seed=7, max_batch=4, max_wait_us=500.0,
                           n_best=3, deadline_us=50_000.0)
        case_base, trace = spec.resolve_inputs()
        traced = spec.build_engine(case_base.copy()).serve(trace)
        untraced = spec.replace(observability=DISABLED).build_engine(
            case_base.copy()
        ).serve(trace)
        assert _records(traced) == _records(untraced)
        assert _stable_metrics(traced) == _stable_metrics(untraced)

    def test_serve_cluster_bit_identical_with_tracing(self):
        spec = ServingSpec(random=16, seed=11, cluster=True, devices=2,
                           software_workers=1, max_batch=4,
                           max_wait_us=500.0, n_best=3)
        case_base, trace = spec.resolve_inputs()
        traced = spec.build_engine(case_base.copy()).serve(trace)
        untraced = spec.replace(observability=DISABLED).build_engine(
            case_base.copy()
        ).serve(trace)
        assert _records(traced) == _records(untraced)
        assert _stable_metrics(traced) == _stable_metrics(untraced)

    def test_learning_run_bit_identical_with_tracing(self):
        spec = ServingSpec(random=20, seed=3, max_batch=4, max_wait_us=500.0,
                           learn=True, novelty_threshold=0.99)
        case_base, trace = spec.resolve_inputs()
        traced = spec.build_engine(case_base.copy()).serve(trace)
        untraced = spec.replace(observability=DISABLED).build_engine(
            case_base.copy()
        ).serve(trace)
        assert _records(traced) == _records(untraced)

    def test_capture_replay_identical_under_any_observability(self, tmp_path):
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(3):
                client.call("POST", "/retrieve", PAPER_WIRE)
            _, capture = client.call("GET", "/capture")
            client.close()
        traced = replay_capture(capture)
        untraced = replay_capture(capture, observability=DISABLED)
        assert _records(traced) == _records(untraced)
        assert _records(traced) == capture["responses"]

    def test_replayed_span_trees_are_deterministic(self):
        spec = ServingSpec(random=2, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(4):
                client.call("POST", "/retrieve", PAPER_WIRE)
            _, capture = client.call("GET", "/capture")
            client.close()
        config = ObservabilityConfig(trace_sample_rate=1.0, trace_ring=512)
        _, first = replay_capture(capture, observability=config, with_engine=True)
        _, second = replay_capture(capture, observability=config, with_engine=True)
        first_trees = [t.identity() for t in first.observability.store.all()]
        second_trees = [t.identity() for t in second.observability.store.all()]
        assert first_trees
        assert first_trees == second_trees

    def test_journal_records_carry_no_observability_keys(self, tmp_path):
        allowed = {
            "journal-trace": {"kind", "batch"},
            "journal-learn": {"kind", "position", "events"},
            "journal-deltas": {
                "kind", "revision", "implementations", "replayable", "events",
            },
            "journal-commit": {
                "kind", "records", "last_stamp_us", "batch", "learn", "shutdown",
            },
        }
        journal_dir = tmp_path / "journal"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec, journal_dir=str(journal_dir)) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(2):
                client.call("POST", "/retrieve", PAPER_WIRE)
            client.call("POST", "/learn", {"events": [LEARN_EVENT]})
            client.close()
        lines = []
        for path in journal_dir.glob("journal-*.jsonl"):
            lines.extend(path.read_text().splitlines())
        assert lines
        for line in lines:
            record = json.loads(line)
            assert set(record) <= allowed[record["kind"]], record

    def test_sample_rate_zero_disables_tracing_only(self):
        spec = ServingSpec(random=10, seed=5, max_batch=4, max_wait_us=500.0,
                           observability=ObservabilityConfig(trace_sample_rate=0.0))
        case_base, trace = spec.resolve_inputs()
        engine = spec.build_engine(case_base)
        report = engine.serve(trace)
        assert len(engine.observability.store) == 0
        assert report.metrics["requests"] == 10
        # The registry still counts -- only span capture is sampled out.
        family = engine.observability.registry.get("repro_requests_total")
        assert sum(family.values().values()) == 10


@pytest.fixture
def daemon():
    spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
    with DaemonThread(spec) as handle:
        client = Client(handle.host, handle.port)
        yield handle, client
        client.close()


class TestPrometheusScrape:
    def test_exposition_is_valid_and_complete(self, daemon):
        _, client = daemon
        for _ in range(3):
            client.call("POST", "/retrieve", PAPER_WIRE)
        status, text = client.call("GET", "/metrics")
        assert status == 200
        assert isinstance(text, str)
        for line in text.splitlines():
            assert line.startswith("#") or SAMPLE_LINE.match(line), line
        # The acceptance floor: requests by status, per-stage latency
        # histograms, worker health, journal commits, learn retries.
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{status="served_hardware"} 3' in text
        assert '# TYPE repro_stage_latency_us histogram' in text
        for stage in ("queue", "admission", "retrieval"):
            assert f'repro_stage_latency_us_count{{stage="{stage}"}}' in text
        assert '# TYPE repro_worker_health_state gauge' in text
        assert '# TYPE repro_journal_commits_total counter' in text
        assert '# TYPE repro_learn_retry_attempts_total counter' in text
        assert 'repro_daemon_ready 1' in text
        assert 'repro_request_latency_us_count 3' in text
        assert 'repro_http_requests_total{route="/retrieve",code="200"} 3' in text

    def test_json_format_still_served(self, daemon):
        _, client = daemon
        client.call("POST", "/retrieve", PAPER_WIRE)
        status, body = client.call("GET", "/metrics?format=json")
        assert status == 200
        assert body["kind"] == "serving-metrics"
        assert body["daemon"]["requests"] == 1
        assert body["daemon"]["ready"] is True


class TestTraceEndpoints:
    def test_trace_of_a_just_served_request(self, daemon):
        _, client = daemon
        status, record = client.call("POST", "/retrieve", PAPER_WIRE)
        assert status == 200
        status, doc = client.call("GET", f"/trace/{trace_id_for(record['index'])}")
        assert status == 200
        assert doc["kind"] == "trace"
        names = [span["name"] for span in doc["spans"]]
        assert names[0] == "request"
        assert "queue" in names and "admission" in names and "retrieval" in names
        root = doc["spans"][0]
        assert root["attributes"]["status"] == "served_hardware"
        # The HTTP round-trip wall time rides along as an annotation.
        assert "http_wall_us" in root["annotations"]

    def test_bare_index_lookup(self, daemon):
        _, client = daemon
        client.call("POST", "/retrieve", PAPER_WIRE)
        status, doc = client.call("GET", "/trace/0")
        assert status == 200
        assert doc["trace_id"] == "req-00000000"

    def test_missing_trace_404_names_the_ring(self, daemon):
        _, client = daemon
        status, body = client.call("GET", "/trace/req-99999999")
        assert status == 404
        assert body["error"] == "trace-not-found"
        assert "/traces/recent" in body["reason"]

    def test_recent_lists_newest_first(self, daemon):
        _, client = daemon
        for _ in range(3):
            client.call("POST", "/retrieve", PAPER_WIRE)
        status, body = client.call("GET", "/traces/recent?limit=2")
        assert status == 200
        assert body["kind"] == "trace-list"
        assert len(body["traces"]) == 2
        assert body["traces"][0]["trace_id"] > body["traces"][1]["trace_id"]
        assert body["ring"] == 256
        assert body["sample_rate"] == 1.0


class TestScrapeDuringReconfiguration:
    def test_metrics_scrape_inside_open_window(self):
        spec = ServingSpec(random=1, cluster=True, devices=1, software_workers=1,
                           max_batch=64, max_wait_us=400_000.0)
        with DaemonThread(spec) as handle:
            client = Client(handle.host, handle.port)
            blocked = Client(handle.host, handle.port)
            results = {}

            def pending_retrieve():
                results["blocked"] = blocked.call("POST", "/retrieve", PAPER_WIRE)

            thread = threading.Thread(target=pending_retrieve)
            thread.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                _, metrics = client.call("GET", "/metrics?format=json")
                if metrics["daemon"]["pending"] >= 1:
                    break
                time.sleep(0.005)
            assert metrics["daemon"]["pending"] >= 1
            status, body = client.call("POST", "/learn", {"events": [LEARN_EVENT]})
            assert status == 202
            # Scrape *inside* the open reconfiguration window: both formats
            # answer 200 and report the window.
            status, text = client.call("GET", "/metrics")
            assert status == 200
            assert "repro_daemon_reconfiguring 1" in text
            assert "repro_daemon_pending_requests 1" in text
            status, metrics = client.call("GET", "/metrics?format=json")
            assert status == 200
            assert metrics["daemon"]["reconfiguring"] is True
            thread.join(timeout=30)
            assert results["blocked"][0] == 200
            status, text = client.call("GET", "/metrics")
            assert "repro_daemon_reconfiguring 0" in text
            client.close()
            blocked.close()


class TestScrapeDuringRecovery:
    def _journal_with_traffic(self, tmp_path):
        journal_dir = tmp_path / "journal"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec, journal_dir=str(journal_dir),
                          hard_stop=True) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(2):
                client.call("POST", "/retrieve", PAPER_WIRE)
            client.close()
        return spec, journal_dir

    def test_metrics_not_gated_on_readiness(self, tmp_path):
        spec, journal_dir = self._journal_with_traffic(tmp_path)
        # A daemon whose recovery has not run yet: /metrics must answer.
        daemon = ServingDaemon(spec, journal_dir=str(journal_dir))
        assert daemon.ready is False
        status, text = asyncio.run(daemon._dispatch("GET", "/metrics", b"", ""))
        assert status == 200
        assert "repro_daemon_ready 0" in text
        status, body = asyncio.run(
            daemon._dispatch("GET", "/metrics", b"", "format=json")
        )
        assert status == 200
        assert body["daemon"]["ready"] is False
        # The trace surfaces stay readiness-gated.
        status, body = asyncio.run(
            daemon._dispatch("GET", "/traces/recent", b"", "")
        )
        assert status == 503

    def test_post_recovery_scrape_covers_replayed_traffic(self, tmp_path):
        spec, journal_dir = self._journal_with_traffic(tmp_path)
        with DaemonThread(spec, journal_dir=str(journal_dir)) as handle:
            client = Client(handle.host, handle.port)
            status, text = client.call("GET", "/metrics")
            assert status == 200
            assert "repro_daemon_ready 1" in text
            # Recovery replays the journal tail through the real session, so
            # the registry already counts the recovered requests...
            assert 'repro_requests_total{status="served_hardware"} 2' in text
            # The commit counter covers this process only: 0 after replay,
            # then it moves as soon as new traffic commits.
            assert "repro_journal_commits_total 0" in text
            status, _ = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200
            _, text = client.call("GET", "/metrics")
            assert 'repro_requests_total{status="served_hardware"} 3' in text
            assert "repro_journal_commits_total 1" in text
            # ...and the trace ring already holds their span trees.
            status, doc = client.call("GET", "/trace/req-00000000")
            assert status == 200
            assert doc["spans"]
            client.close()


class TestTraceCli:
    def _capture(self, tmp_path):
        path = tmp_path / "capture.json"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec, capture_path=str(path)) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(2):
                client.call("POST", "/retrieve", PAPER_WIRE)
            client.close()
        return path

    def test_capture_rendering(self, tmp_path, capsys):
        path = self._capture(tmp_path)
        assert cli.main(["trace", "--capture", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace req-00000000" in out
        assert "request" in out and "retrieval" in out

    def test_single_request_by_bare_index(self, tmp_path, capsys):
        path = self._capture(tmp_path)
        assert cli.main(["trace", "--capture", str(path), "--request", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace req-00000001" in out
        assert "trace req-00000000" not in out

    def test_json_output(self, tmp_path, capsys):
        path = self._capture(tmp_path)
        assert cli.main(["trace", "--capture", str(path), "--json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [d["trace_id"] for d in documents] == [
            "req-00000000", "req-00000001",
        ]

    def test_batches_flag_includes_pipeline_traces(self, tmp_path, capsys):
        path = self._capture(tmp_path)
        assert cli.main(["trace", "--capture", str(path), "--batches"]) == 0
        out = capsys.readouterr().out
        assert "trace batch-00000000" in out

    def test_journal_rendering(self, tmp_path, capsys):
        journal_dir = tmp_path / "journal"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec, journal_dir=str(journal_dir),
                          hard_stop=True) as handle:
            client = Client(handle.host, handle.port)
            client.call("POST", "/retrieve", PAPER_WIRE)
            client.close()
        assert cli.main(["trace", "--journal", str(journal_dir)]) == 0
        out = capsys.readouterr().out
        assert "trace req-00000000" in out

    def test_needs_exactly_one_source(self, capsys):
        assert cli.main(["trace"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestCompareTraceIds:
    def test_diff_summary_names_the_trace_id(self, capsys):
        mismatches = cli._report_compare_mismatches(
            "serve-trace", "served", "golden",
            [[(1, 0.9)], [(2, 0.8)], [(3, 0.7)]],
            [[(1, 0.9)], [(9, 0.1)], [(3, 0.7)]],
        )
        assert mismatches == 1
        err = capsys.readouterr().err
        assert "request 1 (trace req-00000001)" in err


class TestServeLogs:
    def test_structured_start_and_drain_lines(self, caplog):
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            with DaemonThread(spec):
                pass
        messages = [record.getMessage() for record in caplog.records]
        start = [m for m in messages if m.startswith("event=serve.start ")]
        assert start and "spec_hash=" in start[0] and "engine=single" in start[0]
        assert any(m.startswith("event=serve.drain ") for m in messages)

    def test_recovery_summary_line(self, caplog, tmp_path):
        journal_dir = tmp_path / "journal"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
        with DaemonThread(spec, journal_dir=str(journal_dir),
                          hard_stop=True) as handle:
            client = Client(handle.host, handle.port)
            client.call("POST", "/retrieve", PAPER_WIRE)
            client.close()
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            with DaemonThread(spec, journal_dir=str(journal_dir)):
                pass
        messages = [record.getMessage() for record in caplog.records]
        recovered = [m for m in messages if m.startswith("event=serve.recovered ")]
        assert recovered and "replayed_requests=1" in recovered[0]

    def test_log_level_flag_parses(self):
        args = cli.build_parser().parse_args(["serve", "--log-level", "warning"])
        assert args.log_level == "warning"


class TestSpecObservabilityAxis:
    def test_wire_round_trip(self):
        spec = ServingSpec(
            random=1,
            observability=ObservabilityConfig(
                enabled=True, trace_sample_rate=0.25, trace_ring=64
            ),
        )
        rebuilt = ServingSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
        assert rebuilt == spec
        assert rebuilt.observability.trace_sample_rate == 0.25

    def test_cli_args(self):
        args = cli.build_parser().parse_args(
            ["serve-trace", "--random", "4", "--trace-sample-rate", "0.5",
             "--trace-ring", "32"]
        )
        spec = ServingSpec.from_args(args)
        assert spec.observability.trace_sample_rate == 0.5
        assert spec.observability.trace_ring == 32
        args = cli.build_parser().parse_args(
            ["serve-trace", "--random", "4", "--no-observability"]
        )
        assert not ServingSpec.from_args(args).observability.enabled

    def test_spec_hash_is_stable_and_sensitive(self):
        first = ServingSpec(random=1)
        second = ServingSpec(random=1)
        assert first.spec_hash() == second.spec_hash()
        assert len(first.spec_hash()) == 12
        assert first.spec_hash() != ServingSpec(random=2).spec_hash()
