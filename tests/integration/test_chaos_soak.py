"""Seeded chaos soak: every injected fault class ends in an explicit outcome.

The PR 7 acceptance gate.  A seeded :class:`FaultPlan` mixing every fault
family runs against the cluster engine and the live daemon, and the suite
proves the only possible endings are retry-success, graceful degradation,
requeue, or an explicit error -- never a silent wrong answer (rankings stay
bit-identical with a healthy replay on the commonly-served set) and never a
corrupted case base (``validate()`` passes after the storm).
"""

import http.client
import json
import time

import pytest

from repro.platform import DeviceFleet
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.serving import (
    DaemonThread,
    ServingConfig,
    ServingEngine,
    ServingSpec,
    ServingStatus,
    replay_capture,
    synthetic_trace,
)
from repro.tools import CaseBaseGenerator, GeneratorSpec

PAPER_WIRE = {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}}

#: One fault from every virtual-time family, seeded, overlapping mid-trace.
#: The fleet-wide crash window empties the routable tier so the requeue
#: rung fires; the hang on fpga1 never lifts, so quarantine and requeue
#: exhaustion are both exercised in the same run.
CHAOS_FAULTS = (
    FaultSpec(kind="worker_crash", target="*", at_us=1_000.0,
              duration_us=1_500.0),
    FaultSpec(kind="worker_hang", target="fpga1", at_us=5_000.0),
    FaultSpec(kind="slow_device", target="*", at_us=3_000.0,
              duration_us=1_500.0, factor=2.5),
    FaultSpec(kind="stream_corrupt", target="fpga0", at_us=500.0,
              duration_us=400.0),
    FaultSpec(kind="stream_truncate", target="fpga1", at_us=800.0,
              duration_us=300.0, factor=0.5),
)


@pytest.fixture
def case_base():
    return CaseBaseGenerator(
        GeneratorSpec(
            type_count=6,
            implementations_per_type=8,
            attributes_per_implementation=8,
            attribute_type_count=10,
        ),
        seed=9,
    ).case_base()


class TestClusterChaosSoak:
    def _serve_with_faults(self, case_base, trace, config, *, learn=False):
        fleet = DeviceFleet.build(
            case_base, hardware_devices=2, software_devices=0
        )
        engine = ServingEngine(
            case_base, fleet=fleet, config=config,
            fault_injector=FaultInjector(FaultPlan(seed=2004, faults=CHAOS_FAULTS)),
        )
        return engine.serve(trace), engine

    def test_every_outcome_is_explicit_and_rankings_stay_exact(self, case_base):
        trace = synthetic_trace(
            case_base, 100, mean_interarrival_us=120.0, seed=11
        )
        config = ServingConfig(max_batch=4)
        report, engine = self._serve_with_faults(case_base, trace, config)

        # 1. No silent outcome: one terminal record per request, enum
        #    status, and a reason on everything unserved.
        assert len(report.served) == len(trace)
        for record in report.served:
            assert isinstance(record.status, ServingStatus)
            if not record.status.served:
                assert record.reason
        resilience = report.metrics["cluster"]["resilience"]
        assert resilience["requeues"] > 0  # the requeue rung fired

        # 2. No silent wrong answer: the commonly-served set is ranking-
        #    bit-identical with a healthy single-device replay.
        healthy = ServingEngine(case_base, config=config).serve(trace)
        matched = 0
        for mine, theirs in zip(report.rankings(), healthy.rankings()):
            if mine is not None:
                assert mine == theirs
                matched += 1
        assert matched > 0

        # 3. No corrupted case base.
        case_base.validate()

    def test_chaos_run_is_seed_deterministic(self, case_base):
        """The same plan replays to the identical decision surface."""
        trace = synthetic_trace(case_base, 60, mean_interarrival_us=120.0, seed=4)
        config = ServingConfig(max_batch=4, deadline_us=6_000.0)

        def surface():
            report, _ = self._serve_with_faults(case_base, trace, config)
            return [
                (record.status.value, record.wait_us, record.service_us,
                 record.cycles, record.reason)
                for record in report.served
            ]

        assert surface() == surface()

    def test_chaos_with_learning_never_corrupts_the_case_base(self, case_base):
        trace = synthetic_trace(case_base, 80, mean_interarrival_us=120.0, seed=6)
        config = ServingConfig(max_batch=4, learn=True, novelty_threshold=0.99)
        before = case_base.revision
        report, engine = self._serve_with_faults(
            case_base, trace, config, learn=True
        )
        case_base.validate()
        assert len(report.served) == len(trace)
        for record in report.served:
            assert isinstance(record.status, ServingStatus)
        # Learning progressed (or explicitly did not); either way the
        # metrics account for it rather than hiding it.
        assert report.metrics["learning"]["revisions"] == (
            case_base.revision - before
        )
        # Sync retries under stream faults are surfaced, not swallowed.
        resilience = report.metrics["cluster"]["resilience"]
        assert resilience["sync_retries"] >= 0
        assert "failed_syncs" in resilience


class TestDaemonConnectionChaos:
    def test_clients_retry_through_dropped_and_stalled_connections(self):
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(kind="conn_drop", every=5),
            FaultSpec(kind="conn_stall", every=7, duration_us=20_000.0),
        ))
        spec = ServingSpec(
            random=1, max_batch=4, max_wait_us=20_000.0, n_best=3,
            fault_plan=plan,
        )
        served = []
        with DaemonThread(spec) as handle:
            for _ in range(20):
                # A fresh connection per request maximises injected-fault
                # exposure; the retry loop is the client-side contract.
                for attempt in range(5):
                    try:
                        connection = http.client.HTTPConnection(
                            handle.host, handle.port, timeout=30
                        )
                        connection.request(
                            "POST", "/retrieve", body=json.dumps(PAPER_WIRE),
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        body = json.loads(response.read().decode("utf-8"))
                        connection.close()
                        assert response.status == 200
                        served.append(body)
                        break
                    except (ConnectionError, http.client.HTTPException, OSError):
                        connection.close()
                        time.sleep(0.005)
                else:
                    pytest.fail("request never survived the connection chaos")
            metrics_connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            metrics = None
            for attempt in range(5):
                try:
                    metrics_connection.request("GET", "/metrics?format=json")
                    response = metrics_connection.getresponse()
                    metrics = json.loads(response.read().decode("utf-8"))
                    break
                except (ConnectionError, http.client.HTTPException, OSError):
                    metrics_connection.close()
                    metrics_connection = http.client.HTTPConnection(
                        handle.host, handle.port, timeout=30
                    )
                    time.sleep(0.005)
            metrics_connection.close()
            capture = None
            for attempt in range(5):
                try:
                    connection = http.client.HTTPConnection(
                        handle.host, handle.port, timeout=30
                    )
                    connection.request("GET", "/capture")
                    response = connection.getresponse()
                    capture = json.loads(response.read().decode("utf-8"))
                    connection.close()
                    break
                except (ConnectionError, http.client.HTTPException, OSError):
                    connection.close()
                    time.sleep(0.005)

        assert len(served) == 20
        assert metrics is not None and capture is not None
        # Transport faults were injected and counted -- and perturbed the
        # transport only: the capture still replays bit-identically.
        assert metrics["daemon"]["resilience"]["dropped_connections"] > 0
        report = replay_capture(capture)
        replayed = [
            json.loads(json.dumps(record.to_dict())) for record in report.served
        ]
        assert replayed == capture["responses"]

    def test_learn_transient_faults_retry_or_fail_explicitly(self):
        # every=2 injected failures < the policy's 3 attempts: retry-success.
        retry_plan = FaultPlan(seed=1, faults=(
            FaultSpec(kind="learn_transient", every=2),
        ))
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0,
                           fault_plan=retry_plan)
        event = {
            "op": "add_implementation",
            "type_id": 1,
            "implementation": {
                "implementation_id": 9100,
                "target": "gpp",
                "name": "chaos-learned",
                "attributes": {"1": 16, "3": 1, "4": 40},
            },
        }
        with DaemonThread(spec) as handle:
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            connection.request(
                "POST", "/learn", body=json.dumps({"events": [event]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 200 and body["applied"] == 1
            connection.request("GET", "/metrics?format=json")
            metrics = json.loads(
                connection.getresponse().read().decode("utf-8")
            )
            assert metrics["daemon"]["resilience"]["learn_retries"] > 0
            connection.close()

        # every=3 failures == the attempt budget: explicit 409, not applied.
        exhausted_plan = FaultPlan(seed=1, faults=(
            FaultSpec(kind="learn_transient", every=3),
        ))
        spec = ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0,
                           fault_plan=exhausted_plan)
        with DaemonThread(spec) as handle:
            before = handle.daemon.case_base.count_implementations()
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            connection.request(
                "POST", "/learn", body=json.dumps({"events": [event]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 409
            assert body["error"] == "learn-unavailable"
            assert handle.daemon.case_base.count_implementations() == before
            connection.close()
