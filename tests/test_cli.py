"""Tests for the repro-qos command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.tools import load_case_base


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_constraint_syntax_errors_are_reported(self, capsys):
        with pytest.raises(SystemExit):
            main(["retrieve", "--constraint", "not-a-constraint"])


class TestPaperExampleCommand:
    def test_prints_table1_and_speedup(self, capsys):
        assert main(["paper-example"]) == 0
        output = capsys.readouterr().out
        assert "Table 1 reproduction" in output
        assert "0.964" in output and "0.853" in output and "0.43" in output
        assert "speedup at equal clock" in output


class TestGenerateAndRetrieve:
    def test_generate_then_retrieve_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "cb.json"
        assert main(["generate", str(path), "--types", "3", "--implementations", "4",
                     "--attributes", "5", "--seed", "3"]) == 0
        case_base = load_case_base(path)
        assert len(case_base) == 3
        capsys.readouterr()
        assert main(["retrieve", "--case-base", str(path), "--type-id", "2",
                     "--constraint", "1=200", "--constraint", "3=500:2"]) == 0
        output = capsys.readouterr().out
        assert "retrieval result" in output

    def test_retrieve_defaults_to_paper_example(self, capsys):
        assert main(["retrieve", "--type-id", "1",
                     "--constraint", "1=16", "--constraint", "3=1", "--constraint", "4=40"]) == 0
        output = capsys.readouterr().out
        assert "0.964" in output

    def test_retrieve_hardware_backend_reports_cycles(self, capsys):
        assert main(["retrieve", "--backend", "hardware", "--type-id", "1",
                     "--constraint", "1=16", "--constraint", "3=1", "--constraint", "4=40",
                     "--compact"]) == 0
        output = capsys.readouterr().out
        assert "cycles=" in output and "MHz" in output


class TestRetrieveBatch:
    def test_requires_a_request_source(self, capsys):
        assert main(["retrieve-batch"]) == 2
        assert "retrieve-batch needs" in capsys.readouterr().err

    def test_random_batch_compare_reports_agreement(self, capsys):
        assert main(["retrieve-batch", "--random", "25", "--seed", "9",
                     "--backend", "compare", "--show", "5"]) == 0
        output = capsys.readouterr().out
        assert "batch retrieval (25 requests)" in output
        assert "agree on 25/25 rankings" in output
        assert "speedup" in output
        assert "naive" in output and "vectorized" in output

    def test_requests_file_against_generated_case_base(self, tmp_path, capsys):
        import json

        case_base_path = tmp_path / "cb.json"
        assert main(["generate", str(case_base_path), "--types", "3",
                     "--implementations", "5", "--attributes", "4", "--seed", "2"]) == 0
        requests_path = tmp_path / "requests.json"
        requests_path.write_text(json.dumps([
            {"type_id": 1, "constraints": {"1": 120, "2": 700}},
            {"type_id": 2, "constraints": [[1, 300], [3, 500, 2.0]]},
            {"type_id": 3, "constraints": {"4": 10}},
        ]))
        capsys.readouterr()
        assert main(["retrieve-batch", "--case-base", str(case_base_path),
                     "--requests", str(requests_path), "--backend", "vectorized",
                     "--n-best", "2"]) == 0
        output = capsys.readouterr().out
        assert "batch retrieval (3 requests)" in output
        assert "us/request" in output

    def test_paper_example_batch_defaults(self, capsys):
        assert main(["retrieve-batch", "--random", "4", "--backend", "naive"]) == 0
        output = capsys.readouterr().out
        assert "batch retrieval (4 requests)" in output

    def test_canonical_serializer_format_accepted(self, tmp_path, capsys):
        from repro.core import paper_request
        from repro.tools import request_to_json
        import json

        requests_path = tmp_path / "canonical.json"
        requests_path.write_text(f"[{request_to_json(paper_request())}]")
        assert main(["retrieve-batch", "--requests", str(requests_path)]) == 0
        assert "0.964" in capsys.readouterr().out

    def test_malformed_requests_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["retrieve-batch", "--requests", str(bad)]) == 2
        assert "invalid requests JSON" in capsys.readouterr().err
        missing_key = tmp_path / "missing.json"
        missing_key.write_text('[{"type_id": 1}]')
        assert main(["retrieve-batch", "--requests", str(missing_key)]) == 2
        assert "malformed request entry" in capsys.readouterr().err
        bad_constraints = tmp_path / "badc.json"
        bad_constraints.write_text('[{"type_id": 1, "constraints": 5}]')
        assert main(["retrieve-batch", "--requests", str(bad_constraints)]) == 2
        assert "malformed request entry" in capsys.readouterr().err

    def test_missing_requests_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["retrieve-batch", "--requests", str(tmp_path / "typo.json")]) == 2
        assert "cannot read requests file" in capsys.readouterr().err

    def test_unknown_type_in_requests_file_is_a_clean_error(self, tmp_path, capsys):
        requests_path = tmp_path / "unknown.json"
        requests_path.write_text('[{"type_id": 99, "constraints": {"1": 120}}]')
        assert main(["retrieve-batch", "--requests", str(requests_path)]) == 2
        assert "retrieve-batch:" in capsys.readouterr().err

    def test_empty_requests_file_is_a_clean_error(self, tmp_path, capsys):
        requests_path = tmp_path / "empty.json"
        requests_path.write_text("[]")
        assert main(["retrieve-batch", "--requests", str(requests_path)]) == 2
        assert "no usable requests" in capsys.readouterr().err

    def test_attribute_less_case_base_is_a_clean_error(self, tmp_path, capsys):
        import json

        case_base_path = tmp_path / "bare.json"
        case_base_path.write_text(json.dumps({
            "types": [{"type_id": 1, "implementations": [
                {"implementation_id": 1, "target": "gpp", "attributes": {}},
            ]}],
        }))
        assert main(["retrieve-batch", "--case-base", str(case_base_path),
                     "--random", "5"]) == 2
        assert "no usable requests" in capsys.readouterr().err


class TestEstimateExportScenario:
    def test_estimate_prints_table2_rows(self, capsys):
        assert main(["estimate", "--components"]) == 0
        output = capsys.readouterr().out
        assert "CLB-Slices" in output and "MULT18X18s" in output
        assert "component inventory" in output

    def test_export_writes_files(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "images"), "--with-request",
                     "--formats", "memh"]) == 0
        output = capsys.readouterr().out
        assert "case_base_memh" in output and "request_memh" in output
        assert (tmp_path / "images" / "retrieval_case_base.memh").exists()

    def test_scenario_runs_and_reports(self, capsys):
        assert main(["scenario", "--duration-ms", "800", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "requests=" in output
        assert "mp3-player" in output

    def test_scenario_hardware_backend_with_cycle_engine(self, capsys):
        assert main(["scenario", "--duration-ms", "300", "--seed", "4",
                     "--backend", "hardware", "--cycle-engine", "vectorized"]) == 0
        assert "requests=" in capsys.readouterr().out


class TestCosimBatch:
    def test_requires_a_request_source(self, capsys):
        assert main(["cosim-batch"]) == 2
        assert "cosim-batch needs" in capsys.readouterr().err

    def test_compare_reports_exact_agreement_and_speedup(self, capsys):
        assert main(["cosim-batch", "--random", "12", "--seed", "2",
                     "--engine", "compare"]) == 0
        output = capsys.readouterr().out
        assert "cycle co-simulation (12 requests)" in output
        assert "hardware: engines agree exactly on 12/12 results" in output
        assert "software: engines agree exactly on 12/12 results" in output
        assert "vectorized speedup" in output
        assert "hw-vs-sw speedup" in output

    def test_hardware_only_with_compact_and_nbest(self, capsys):
        assert main(["cosim-batch", "--random", "8", "--model", "hardware",
                     "--engine", "compare", "--compact", "--n-best", "3"]) == 0
        output = capsys.readouterr().out
        assert "hardware: engines agree exactly on 8/8 results" in output
        assert "software" not in output

    def test_software_ablations_run_vectorized(self, capsys):
        assert main(["cosim-batch", "--random", "6", "--model", "software",
                     "--engine", "vectorized", "--inline-helpers", "--soft-multiply"]) == 0
        output = capsys.readouterr().out
        assert "software cycles" in output
        assert "modelled cycles" in output

    def test_generated_case_base_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cb.json"
        assert main(["generate", str(path), "--types", "4", "--implementations", "5",
                     "--attributes", "6", "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["cosim-batch", "--case-base", str(path), "--random", "16",
                     "--engine", "compare"]) == 0
        output = capsys.readouterr().out
        assert "16/16 results" in output

    def test_unknown_type_in_requests_file_is_a_clean_error(self, tmp_path, capsys):
        import json

        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"type_id": 99, "constraints": {"1": 16}}]))
        assert main(["cosim-batch", "--requests", str(path)]) == 2
        assert "cosim-batch:" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_flag_prints_the_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-qos {repro.__version__}" in capsys.readouterr().out


class TestServeTrace:
    def test_default_workload_trace_replay(self, capsys):
        assert main(["serve-trace", "--duration-ms", "1000", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "trace replay" in output
        assert "served=" in output
        assert "modelled latency p50/p95/p99" in output
        assert "batches:" in output

    def test_compare_mode_reports_bit_identical_shards(self, capsys):
        assert main(["serve-trace", "--shards", "4", "--engine", "compare",
                     "--duration-ms", "1000", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "sharded (4) vs unsharded rankings bit-identical" in output

    def test_random_trace_with_deadline_and_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert main(["serve-trace", "--random", "32", "--seed", "3",
                     "--mean-interarrival-us", "20", "--max-batch", "16",
                     "--deadline-us", "250", "--json", str(report_path)]) == 0
        output = capsys.readouterr().out
        assert "trace replay (32 requests" in output
        payload = json.loads(report_path.read_text())
        assert payload["metrics"]["requests"] == 32
        assert payload["config"]["deadline_us"] == 250.0
        assert len(payload["requests"]) == 32

    def test_requests_file_replay(self, tmp_path, capsys):
        import json

        requests_path = tmp_path / "requests.json"
        requests_path.write_text(json.dumps([
            {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}},
            {"type_id": 1, "constraints": [[1, 12], [4, 30, 2.0]]},
        ]))
        assert main(["serve-trace", "--requests", str(requests_path),
                     "--max-batch", "2"]) == 0
        output = capsys.readouterr().out
        assert "trace replay (2 requests" in output
        assert "served=2/2" in output

    def test_case_base_without_request_source_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "cb.json"
        assert main(["generate", str(path), "--types", "2", "--implementations", "3",
                     "--attributes", "4", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["serve-trace", "--case-base", str(path)]) == 2
        assert "serve-trace" in capsys.readouterr().err

    def test_unknown_workload_is_a_clean_error(self, capsys):
        assert main(["serve-trace", "--workload", "nonexistent"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_heavy_traffic_workload_saturates_batches(self, capsys):
        assert main(["serve-trace", "--workload", "heavy-traffic",
                     "--duration-ms", "200", "--max-batch", "8",
                     "--max-wait-us", "20000", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "trace replay" in output

    def test_invalid_serving_config_is_a_clean_error(self, capsys):
        assert main(["serve-trace", "--random", "2", "--n-best", "0"]) == 2
        assert "serve-trace: n_best" in capsys.readouterr().err

    def test_removed_workers_flag_is_rejected(self, capsys):
        # The multi-process execution tier is gone: its flag must fail
        # loudly rather than silently serve in-process.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-trace", "--random", "2", "--workers", "2"])
        assert excinfo.value.code != 0
        assert "--workers" in capsys.readouterr().err


def _tampered_single_device_engine():
    """A ServingEngine subclass that corrupts the unsharded reference replay.

    The compare modes re-serve the trace through a single-device (shard
    count 1) reference engine; tampering with that replay's rankings forces
    a bit-identity failure without touching the primary replay, so the
    tests can assert the non-zero exit code and the diff summary.
    """
    from repro.serving import ServingEngine

    class TamperedServingEngine(ServingEngine):
        def serve(self, trace):
            report = ServingEngine.serve(self, trace)
            if self.config.shard_count == 1:
                for record in report.served:
                    if record.result is not None and len(record.result.ranked) > 1:
                        record.result.ranked.reverse()
                        break
            return report

    return TamperedServingEngine


class TestServeTraceCompareExitCode:
    def test_compare_mismatch_exits_nonzero_with_diff_summary(
        self, monkeypatch, capsys
    ):
        import repro.serving

        monkeypatch.setattr(
            repro.serving, "ServingEngine", _tampered_single_device_engine()
        )
        # The sharded replay (--shards 4) is untouched; the tampered
        # unsharded reference must trip the compare gate.
        assert main(["serve-trace", "--shards", "4", "--engine", "compare",
                     "--random", "24", "--seed", "3", "--n-best", "5"]) == 1
        captured = capsys.readouterr()
        assert "bit-identity FAILED" in captured.err
        assert "request" in captured.err  # the per-request diff summary
        assert "sharded=" in captured.err and "unsharded=" in captured.err


class TestServeCluster:
    def test_default_fleet_replay_reports_workers(self, capsys):
        assert main(["serve-cluster", "--duration-ms", "500", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "cluster replay" in output
        assert "fleet utilisation" in output
        assert "fpga0" in output and "cpu0" in output
        assert "image syncs:" in output
        assert "modelled fleet makespan" in output

    def test_compare_mode_proves_bit_identity(self, capsys):
        assert main(["serve-cluster", "--devices", "4", "--engine", "compare",
                     "--random", "48", "--seed", "3",
                     "--mean-interarrival-us", "50"]) == 0
        output = capsys.readouterr().out
        assert "cluster (5 devices) vs single-device rankings bit-identical" in output
        assert "48/48" in output

    def test_compare_mismatch_exits_nonzero_with_diff_summary(
        self, monkeypatch, capsys
    ):
        import repro.serving

        monkeypatch.setattr(
            repro.serving, "ServingEngine", _tampered_single_device_engine()
        )
        assert main(["serve-cluster", "--devices", "2", "--engine", "compare",
                     "--random", "24", "--seed", "3", "--n-best", "5"]) == 1
        captured = capsys.readouterr()
        assert "bit-identity FAILED" in captured.err
        assert "cluster=" in captured.err and "single-device=" in captured.err

    def test_learn_compare_replays_from_identical_snapshots(self, capsys):
        assert main(["serve-cluster", "--devices", "2", "--engine", "compare",
                     "--random", "24", "--seed", "5", "--learn",
                     "--mean-interarrival-us", "400"]) == 0
        output = capsys.readouterr().out
        assert "learning:" in output
        assert "bit-identical" in output

    def test_fleet_failover_workload_applies_outages(self, capsys):
        assert main(["serve-cluster", "--workload", "fleet-failover",
                     "--duration-ms", "400", "--devices", "1",
                     "--deadline-us", "5000", "--seed", "9"]) == 0
        output = capsys.readouterr().out
        # During the lone device's outage the router degrades to software.
        assert "sw=" in output
        served_software = int(output.split("sw=")[1].split(")")[0])
        assert served_software > 0

    def test_reconfig_us_flag_and_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "cluster.json"
        assert main(["serve-cluster", "--random", "16", "--seed", "2",
                     "--learn", "--reconfig-us", "75",
                     "--mean-interarrival-us", "500",
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        cluster = payload["metrics"]["cluster"]
        assert cluster["devices"] == 3
        assert set(cluster["workers"]) == {"fpga0", "fpga1", "cpu0"}
        served_workers = [
            entry.get("worker") for entry in payload["requests"]
            if entry["status"].startswith("served")
        ]
        assert served_workers and all(served_workers)

    def test_invalid_fleet_is_a_clean_error(self, capsys):
        assert main(["serve-cluster", "--random", "4", "--devices", "0",
                     "--software-workers", "0"]) == 2
        assert "serve-cluster" in capsys.readouterr().err


class TestServeSubcommand:
    def test_parser_wires_the_daemon_handler(self):
        from repro.cli import cmd_serve
        from repro.serving import ServingSpec

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cluster", "--devices", "3",
             "--max-batch", "16", "--capture", "cap.json"]
        )
        assert args.handler is cmd_serve
        spec = ServingSpec.from_args(args)
        assert spec.cluster and spec.devices == 3 and spec.max_batch == 16
        assert args.capture == "cap.json"

    def test_invalid_spec_is_a_clean_error(self, capsys):
        assert main(["serve", "--n-best", "0"]) == 2
        assert "serve: n_best" in capsys.readouterr().err


class TestCaptureReplay:
    @staticmethod
    def _record_capture(tmp_path, learn_events=()):
        import json

        from repro.serving import DaemonThread, ServingSpec

        path = tmp_path / "capture.json"
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=10_000.0)
        with DaemonThread(spec, capture_path=str(path)) as handle:
            import http.client

            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            wire = {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}}
            for payload in [wire, {"requests": [wire, wire]}, wire]:
                connection.request("POST", "/retrieve", body=json.dumps(payload))
                assert connection.getresponse().read()
            for events in learn_events:
                connection.request("POST", "/learn",
                                   body=json.dumps({"events": events}))
                assert connection.getresponse().read()
            connection.close()
        return path

    def test_capture_replay_is_bit_identical(self, tmp_path, capsys):
        path = self._record_capture(tmp_path)
        assert main(["serve-trace", "--capture", str(path)]) == 0
        assert "capture replay bit-identical for 4/4 responses" in (
            capsys.readouterr().out
        )

    def test_capture_replay_with_learn_events(self, tmp_path, capsys):
        event = {"op": "add_implementation", "type_id": 1,
                 "implementation": {"implementation_id": 9100, "target": "gpp",
                                    "attributes": {"1": 16, "3": 1, "4": 40}}}
        path = self._record_capture(tmp_path, learn_events=[[event]])
        assert main(["serve-trace", "--capture", str(path)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_tampered_capture_fails_the_gate(self, tmp_path, capsys):
        import json

        path = self._record_capture(tmp_path)
        document = json.loads(path.read_text())
        document["responses"][0]["ranking"][0]["similarity"] += 1e-9
        path.write_text(json.dumps(document))
        assert main(["serve-trace", "--capture", str(path)]) == 1
        captured = capsys.readouterr()
        assert "bit-identity FAILED" in captured.err
        assert "recorded=" in captured.err and "replayed=" in captured.err

    def test_missing_capture_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["serve-trace", "--capture", str(tmp_path / "nope.json")]) == 2
        assert "cannot read capture file" in capsys.readouterr().err


class TestJsonReportEnvelope:
    def test_report_documents_are_versioned(self, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        assert main(["serve-trace", "--random", "8", "--seed", "2",
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["kind"] == "serving-report"
        assert payload["schema_version"] >= 1
        assert payload["metrics"]["requests"] == 8
