"""HTTP surface of the serving daemon (``repro serve``).

Exercises the tentpole's network boundary over real loopback sockets: the
retrieve/learn/metrics/healthz routes, the structured 4xx/503 error bodies,
the wall-clock deadline mapping and the capture document.  The heavier
bit-identity soak lives in ``tests/integration/test_daemon_soak.py``.
"""

import http.client
import json
import time

import pytest

from repro.serving import DaemonThread, ServingSpec, replay_capture

#: The paper's FIR-equalizer request (Fig. 3) in wire shorthand.
PAPER_WIRE = {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}}

#: A well-formed /learn event adding a fresh software implementation.
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


class Client:
    """Minimal keep-alive JSON client over http.client."""

    def __init__(self, host, port):
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def call(self, method, path, payload=None, raw=None):
        body = raw if raw is not None else (
            json.dumps(payload) if payload is not None else None
        )
        self.connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def close(self):
        self.connection.close()


@pytest.fixture
def daemon():
    spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)
    with DaemonThread(spec, max_request_batch=4) as handle:
        client = Client(handle.host, handle.port)
        yield handle, client
        client.close()


class TestRoutes:
    def test_healthz(self, daemon):
        _, client = daemon
        status, body = client.call("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["engine"] == "single"
        assert body["kind"] == "health"

    def test_unknown_route_is_404(self, daemon):
        _, client = daemon
        status, body = client.call("GET", "/nope")
        assert status == 404
        assert body["error"] == "not-found"

    def test_wrong_method_is_405(self, daemon):
        _, client = daemon
        status, body = client.call("GET", "/retrieve")
        assert status == 405
        assert body["error"] == "method-not-allowed"

    def test_single_retrieve_returns_a_served_record(self, daemon):
        _, client = daemon
        status, body = client.call("POST", "/retrieve", PAPER_WIRE)
        assert status == 200
        assert body["kind"] == "served-request"
        assert body["status"] in ("served_hardware", "served_software")
        assert body["ranking"], "expected a non-empty ranking"

    def test_batch_retrieve_returns_per_request_results(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/retrieve", {"requests": [PAPER_WIRE, PAPER_WIRE]}
        )
        assert status == 200
        assert body["kind"] == "served-batch"
        assert len(body["results"]) == 2
        assert [result["index"] for result in body["results"]] == sorted(
            result["index"] for result in body["results"]
        )

    def test_metrics_scrape(self, daemon):
        _, client = daemon
        client.call("POST", "/retrieve", PAPER_WIRE)
        status, body = client.call("GET", "/metrics?format=json")
        assert status == 200
        assert body["kind"] == "serving-metrics"
        assert body["metrics"]["requests"] >= 1
        assert "latency" in body["metrics"] and "statuses" in body["metrics"]
        daemon_section = body["daemon"]
        assert daemon_section["engine"] == "single"
        assert daemon_section["requests"] >= 1
        assert daemon_section["reconfiguring"] is False


class TestErrorBodies:
    def test_malformed_json_is_a_structured_400(self, daemon):
        _, client = daemon
        status, body = client.call("POST", "/retrieve", raw="{not json")
        assert status == 400
        assert body["error"] == "bad-request"
        assert "invalid JSON" in body["reason"]

    def test_unknown_case_type_is_a_failed_record(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/retrieve", {"type_id": 999, "constraints": {"1": 16}}
        )
        assert status == 400
        assert body["status"] == "failed"

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weight_is_a_400_and_serving_continues(self, daemon, weight):
        _, client = daemon
        raw = (
            '{"type_id": 1, "attributes": '
            f'[{{"attribute_id": 1, "value": 16, "weight": {weight}}}]}}'
        )
        status, body = client.call("POST", "/retrieve", raw=raw)
        assert status == 400
        assert body["error"] == "bad-request"
        assert "finite" in body["reason"]
        status, body = client.call("POST", "/retrieve", PAPER_WIRE)
        assert status == 200
        assert body["status"] in ("served_hardware", "served_software")

    @pytest.mark.parametrize("value", ["[1, 2]", '{"a": 1}', '"fast"', "NaN", "Infinity"])
    def test_value_that_is_not_a_finite_number_is_a_400(self, daemon, value):
        _, client = daemon
        raw = (
            '{"type_id": 1, "attributes": '
            f'[{{"attribute_id": 1, "value": {value}, "weight": 1.0}}]}}'
        )
        status, body = client.call("POST", "/retrieve", raw=raw)
        assert status == 400
        assert body["error"] == "bad-request"
        assert "finite real number" in body["reason"]
        status, body = client.call("POST", "/retrieve", PAPER_WIRE)
        assert status == 200
        assert body["status"] in ("served_hardware", "served_software")

    def test_impossible_deadline_is_a_503_rejection(self, daemon):
        _, client = daemon
        # deadline_ms maps through the wall-clock-to-cycles path; 1 ns of
        # budget can never cover the modelled retrieval cycles.
        status, body = client.call(
            "POST", "/retrieve", dict(PAPER_WIRE, deadline_ms=1e-6)
        )
        assert status == 503
        assert body["status"] == "rejected_deadline"

    def test_zero_deadline_is_rejected_not_crashed(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/retrieve", dict(PAPER_WIRE, deadline_us=0)
        )
        assert status in (503, 200)  # 0 may mean "no deadline" upstream; never 5xx crash
        assert body.get("status") in ("rejected_deadline", "served_hardware",
                                      "served_software")

    def test_bad_deadline_is_a_schema_error(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/retrieve", dict(PAPER_WIRE, deadline_us="soon")
        )
        assert status == 400
        assert "deadline_us" in body["reason"]

    def test_oversized_batch_is_413(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/retrieve", {"requests": [PAPER_WIRE] * 5}
        )
        assert status == 413
        assert body["error"] == "batch-too-large"
        assert body["details"]["limit"] == 4

    def test_empty_batch_is_400(self, daemon):
        _, client = daemon
        status, body = client.call("POST", "/retrieve", {"requests": []})
        assert status == 400


class TestLearn:
    def test_idle_learn_applies_immediately(self, daemon):
        handle, client = daemon
        status, body = client.call("POST", "/learn", {"events": [LEARN_EVENT]})
        assert status == 200
        assert body["kind"] == "learning-applied"
        assert body["applied"] == 1
        assert body["implementations"] > 0

    def test_malformed_event_is_rejected_before_queueing(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/learn", {"events": [{"op": "explode", "type_id": 1}]}
        )
        assert status == 400
        assert "unknown mutation op" in body["reason"]

    def test_semantic_failure_is_a_409(self, daemon):
        _, client = daemon
        status, body = client.call(
            "POST", "/learn",
            {"events": [{"op": "remove_implementation", "type_id": 1,
                         "implementation_id": 123456}]},
        )
        assert status == 409
        assert body["error"] == "mutation-failed"

    def test_learned_implementation_is_retrievable_afterwards(self, daemon):
        handle, client = daemon
        before = handle.daemon.case_base.count_implementations()
        event = dict(LEARN_EVENT)
        event["implementation"] = dict(
            LEARN_EVENT["implementation"], implementation_id=9002
        )
        status, body = client.call("POST", "/learn", {"events": [event]})
        assert status == 200 and body["applied"] == 1
        assert body["implementations"] == before + 1
        status, body = client.call("POST", "/retrieve", PAPER_WIRE)
        assert status == 200
        assert body["ranking"], "the mutated case base must still serve"


class TestReconfiguration:
    def test_retrieve_during_cluster_reconfiguration_is_503(self):
        import threading

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
            # Wait until the request is stamped into the open micro-batch.
            deadline = time.time() + 10
            while time.time() < deadline:
                _, metrics = client.call("GET", "/metrics?format=json")
                if metrics["daemon"]["pending"] >= 1:
                    break
                time.sleep(0.005)
            assert metrics["daemon"]["pending"] >= 1

            status, body = client.call("POST", "/learn", {"events": [LEARN_EVENT]})
            assert status == 202
            assert body["kind"] == "learning-queued"
            assert body["reconfiguring"] is True

            status, body = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 503
            assert body["error"] == "reconfiguring"
            assert body["details"]["queued_mutation_batches"] == 1

            # The max_wait timer flushes the batch, applying the mutation and
            # closing the reconfiguration window.
            thread.join(timeout=30)
            assert results["blocked"][0] == 200
            deadline = time.time() + 10
            while time.time() < deadline:
                _, metrics = client.call("GET", "/metrics?format=json")
                if not metrics["daemon"]["reconfiguring"]:
                    break
                time.sleep(0.01)
            assert metrics["daemon"]["reconfiguring"] is False
            client.close()
            blocked.close()


class TestCapture:
    def test_capture_replays_bit_identically(self, daemon):
        _, client = daemon
        for _ in range(3):
            client.call("POST", "/retrieve", PAPER_WIRE)
        client.call("POST", "/retrieve", {"requests": [PAPER_WIRE, PAPER_WIRE]})
        status, capture = client.call("GET", "/capture")
        assert status == 200
        assert capture["kind"] == "serving-capture"
        report = replay_capture(capture)
        replayed = [
            json.loads(json.dumps(record.to_dict())) for record in report.served
        ]
        assert replayed == capture["responses"]


class TestDrain:
    """The SIGTERM path: in-flight micro-batches flush, the journal syncs a
    final commit group, the capture closes -- and the drained capture replays
    bit-identically."""

    def test_stop_with_inflight_batch_flushes_journals_and_captures(
        self, tmp_path
    ):
        import asyncio

        from repro.api import schemas
        from repro.serving.daemon import ServingDaemon

        spec = ServingSpec(random=1, max_batch=64, max_wait_us=500_000.0, n_best=3)
        journal_dir = tmp_path / "journal"
        capture_path = tmp_path / "capture.json"
        request = schemas.request_from_wire(PAPER_WIRE, requester="http")

        async def scenario():
            daemon = ServingDaemon(spec, journal_dir=str(journal_dir))
            await daemon.start()
            while not daemon.ready:  # recovery of the empty directory
                await asyncio.sleep(0.001)
            # Three requests stamped into one still-open micro-batch (the
            # huge max_wait keeps it in flight), plus a /learn deferred to
            # the batch boundary.
            futures = [
                daemon.batcher.submit(request, None, "") for _ in range(3)
            ]
            status, body = await daemon._handle_learn({"events": [LEARN_EVENT]})
            assert status == 202 and body["kind"] == "learning-queued"
            assert len(daemon.batcher.pending) == 3
            assert not any(future.done() for future in futures)
            await daemon.stop(capture_path=str(capture_path))
            # The drain flushed the batch and resolved every waiting client.
            assert all(future.done() for future in futures)
            assert not daemon.batcher.pending
            assert not daemon._queued_mutations
            return [future.result() for future in futures], daemon

        records, daemon = asyncio.run(scenario())
        assert all(record.status.served for record in records)

        # The journal's final commit group carries the shutdown marker, so a
        # later restart knows the previous incarnation drained cleanly.
        journal_lines = [
            json.loads(line)
            for line in (journal_dir / "journal-0.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        assert journal_lines[-1]["kind"] == "journal-commit"
        assert journal_lines[-1]["shutdown"] is True
        assert any(
            line["kind"] == "journal-trace" for line in journal_lines
        )
        assert any(line["kind"] == "journal-learn" for line in journal_lines)

        # The drained capture replays bit-identically, learn batch included.
        capture = json.loads(capture_path.read_text(encoding="utf-8"))
        assert capture["kind"] == "serving-capture"
        assert len(capture["responses"]) == 3
        assert capture["learn_events"]
        report = replay_capture(capture)
        replayed = [
            json.loads(json.dumps(record.to_dict())) for record in report.served
        ]
        assert replayed == capture["responses"]

    def test_thread_exit_drains_like_sigterm(self, tmp_path):
        """The DaemonThread context exit takes the same graceful path."""
        import threading

        capture_path = tmp_path / "capture.json"
        spec = ServingSpec(random=1, max_batch=64, max_wait_us=400_000.0, n_best=3)
        results = {}
        with DaemonThread(spec, capture_path=str(capture_path)) as handle:
            client = Client(handle.host, handle.port)
            blocked = Client(handle.host, handle.port)

            def pending_retrieve():
                try:
                    results["blocked"] = blocked.call(
                        "POST", "/retrieve", PAPER_WIRE
                    )
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    results["error"] = exc

            thread = threading.Thread(target=pending_retrieve)
            thread.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                _, metrics = client.call("GET", "/metrics?format=json")
                if metrics["daemon"]["pending"] >= 1:
                    break
                time.sleep(0.005)
            assert metrics["daemon"]["pending"] >= 1
            client.close()
        # The context exit drained the in-flight batch and wrote the capture.
        thread.join(timeout=30)
        blocked.close()
        capture = json.loads(capture_path.read_text(encoding="utf-8"))
        assert len(capture["responses"]) == 1
        report = replay_capture(capture)
        replayed = [
            json.loads(json.dumps(record.to_dict())) for record in report.served
        ]
        assert replayed == capture["responses"]
