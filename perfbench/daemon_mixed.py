"""The ``daemon-mixed`` workload: ``repro serve`` behind a real socket.

The server runs in its own process with ``--max-batch 1`` and a journal
directory inside the checkout.  Set-up is timed from spawning the process to
the first 200 from ``/readyz`` (polled with a short sleep), repeated and
reported as a median; the last server started serves the timed phase.

Two client threads hold one keep-alive connection each and run a closed
loop: ``heavy-traffic`` wire requests to ``POST /retrieve``, and every
:data:`LEARN_EVERY`-th call a ``POST /learn`` that replaces one platform
implementation with a copy whose numeric attributes were jittered inside the
bounds table.  A call's latency runs from sending the request to receiving
the last response byte.  Throughput and the latency percentiles are medians
over one-second windows of completions; ``peak_rss_mb`` is the server's
``VmHWM`` once :data:`RSS_AT_CALLS` calls completed.

Output check: ``GET /capture`` is replayed offline with ``replay_capture``
and must be bit-identical to the captured responses, and every response a
client received must equal the captured one for its trace index.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import spans

CLIENTS = 2
LEARN_EVERY = 20
SETUP_REPEATS = 5
#: Distinct wire requests and learn events each client cycles through.
REQUESTS_PER_CLIENT = 4000
LEARNS_PER_CLIENT = 400
#: No journal snapshot inside a timed phase: on an ext4 disk mounted with
#: ``discard`` (measured on a 2-vCPU VM), a snapshot's unlink of the previous
#: generation stalls the server for 0.1-0.8 s, growing with the journal, so at
#: the default interval of 64 records the disk would set every end-to-end
#: number.
#: The generation snapshot taken at start-up is still timed (``setup_s``, and
#: ``journal.snapshot_ms`` in the traced run).
SERVE_OPTIONS = [
    "--max-batch", "1", "--port", "0", "--log-level", "warning",
    "--snapshot-interval", "1000000",
]
#: Completed calls after which the server's peak RSS is read.
RSS_AT_CALLS = 8000
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
CALL_TIMEOUT_S = 60.0

HERE = Path(__file__).resolve().parent
_ANNOUNCE = re.compile(r"http://([^:\s]+):(\d+)")

#: One call as a client saw it: ``(sent_ns, done_ns, is_learn, code, body)``.
Call = Tuple[int, int, bool, int, bytes]


def jitter_event(case_base, rng: random.Random) -> Dict[str, object]:
    """A ``replace_implementation`` event that stays inside the bounds table.

    One implementation is drawn from the case base; each integer attribute
    with a bound moves by at most a twentieth of the bound's range and is
    clamped to it.  Other attributes are copied unchanged.
    """
    from repro.api.schemas import implementation_to_wire

    function_type = rng.choice(case_base.sorted_types())
    implementation = rng.choice(function_type.sorted_implementations())
    wire = implementation_to_wire(implementation)
    bounds = case_base.bounds
    attributes = {}
    for attribute_id, value in sorted(implementation.attributes.items()):
        if attribute_id in bounds and isinstance(value, int) and not isinstance(value, bool):
            bound = bounds.get(attribute_id)
            step = max(1, int(bound.upper - bound.lower) // 20)
            value = min(bound.upper, max(bound.lower, value + rng.randint(-step, step)))
        attributes[attribute_id] = value
    wire["attributes"] = attributes
    return {
        "op": "replace_implementation",
        "type_id": function_type.type_id,
        "implementation": wire,
    }


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    """A complete HTTP/1.1 request, sent in one write."""
    return (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _client_inputs(seed: int, client: int) -> Tuple[List[bytes], List[bytes]]:
    """Pre-built ``/retrieve`` and ``/learn`` requests for one client."""
    from repro.api.schemas import request_to_wire
    from repro.serving import ServingSpec, trace_from_workloads

    case_base = ServingSpec().resolve_case_base()
    client_seed = seed * 100_003 + client
    # ~500 arrivals per modelled second: 16 s covers REQUESTS_PER_CLIENT.
    trace = trace_from_workloads(
        ("heavy-traffic",), duration_us=16e6, seed=client_seed, schema=case_base.schema
    )[:REQUESTS_PER_CLIENT]
    requests = [
        _request("POST", "/retrieve", json.dumps(request_to_wire(entry.request)).encode())
        for entry in trace
    ]
    rng = random.Random(client_seed)
    learns = [
        _request("POST", "/learn", json.dumps({"events": [jitter_event(case_base, rng)]}).encode())
        for _ in range(LEARNS_PER_CLIENT)
    ]
    return requests, learns


class Connection:
    """A minimal keep-alive HTTP/1.1 client for ``Content-Length`` replies."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=CALL_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk

    def call(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        while (end := self.buffer.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(self.buffer[:end]).split(b"\r\n")
        code = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        del self.buffer[: end + 4]
        while len(self.buffer) < length:
            self._fill()
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        return code, body

    def close(self) -> None:
        self.sock.close()


def _pin_clients() -> Optional[set]:
    """Pin this process to one CPU; return another for the server (or ``None``).

    The clients' CPU time then never competes with the single-threaded
    server's, which otherwise cost it ~10% of its throughput.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[1]})
    return {cpus[0]}


class Server:
    """One ``repro serve`` process (plain, or under the span recorder)."""

    def __init__(self, out_dir: str, *, cpus: Optional[set] = None, spans_path: str = "") -> None:
        self.journal = os.path.join(out_dir, "journal")
        shutil.rmtree(self.journal, ignore_errors=True)
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if spans_path:
            command = [sys.executable, str(HERE / "serve_traced.py"), "--spans", spans_path]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += SERVE_OPTIONS + ["--journal", self.journal]
        self._log = open(os.path.join(out_dir, "serve.log"), "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(HERE.parent),
        )
        try:
            if cpus:
                os.sched_setaffinity(self.process.pid, cpus)
            line = self.process.stdout.readline().decode("utf-8", "replace")
            match = _ANNOUNCE.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not announce its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self._call("GET", "/readyz")[0] != 200:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.002)

    def _call(self, method: str, path: str) -> Tuple[int, bytes]:
        connection = Connection(self.host, self.port)
        try:
            return connection.call(_request(method, path))
        finally:
            connection.close()

    def get(self, path: str) -> object:
        code, body = self._call("GET", path)
        if code != 200:
            raise RuntimeError(f"GET {path} answered {code}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (orderly drain), then wait; SIGKILL only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.journal, ignore_errors=True)


class Client(threading.Thread):
    """One keep-alive connection in a closed loop until the phase ends."""

    def __init__(self, server: Server, requests, learns, start: threading.Event,
                 stop_ns: List[int]) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.requests = requests
        self.learns = learns
        self.start_event = start
        self.stop_ns = stop_ns
        self.calls: List[Call] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # re-raised by the caller after join
            self.error = exc

    def _loop(self) -> None:
        connection = Connection(self.server.host, self.server.port)
        clock = time.perf_counter_ns
        calls = self.calls
        count = 0
        self.start_event.wait()
        stop_ns = self.stop_ns[0]
        try:
            while clock() < stop_ns:
                count += 1
                is_learn = count % LEARN_EVERY == 0
                if is_learn:
                    request = self.learns[(count // LEARN_EVERY) % len(self.learns)]
                else:
                    request = self.requests[count % len(self.requests)]
                sent = clock()
                code, body = connection.call(request)
                calls.append((sent, clock(), is_learn, code, body))
        finally:
            connection.close()


def _closed_loop(
    server: Server, inputs, seconds: int
) -> Tuple[Tuple[int, int], List[Call], float]:
    """Run the clients for ``seconds``; also read the server's ``VmHWM``.

    The memory reading is taken once :data:`RSS_AT_CALLS` calls completed
    (or at the end, if fewer did): the server retains every request, so a
    reading at the end of the phase would grow with throughput.
    """
    start = threading.Event()
    stop_ns = [0]
    clients = [Client(server, requests, learns, start, stop_ns) for requests, learns in inputs]
    for client in clients:
        client.start()
    begin = time.perf_counter_ns()
    stop_ns[0] = begin + seconds * 1_000_000_000
    start.set()
    rss_mb = None
    deadline = time.monotonic() + seconds + CALL_TIMEOUT_S
    while any(client.is_alive() for client in clients) and time.monotonic() < deadline:
        if rss_mb is None and sum(len(client.calls) for client in clients) >= RSS_AT_CALLS:
            rss_mb = measure.vm_hwm_mb(server.process.pid)
        time.sleep(0.005)
    if rss_mb is None:
        rss_mb = measure.vm_hwm_mb(server.process.pid)
    for client in clients:
        client.join(timeout=1.0)
        if client.is_alive():
            raise RuntimeError("a client did not finish its closed loop")
        if client.error is not None:
            raise client.error
    calls = [call for client in clients for call in client.calls]
    return (begin, stop_ns[0]), calls, rss_mb


def _windows(phase: Tuple[int, int], calls: List[Call]) -> List[measure.Window]:
    """One-second windows of the calls completed inside the phase."""
    begin, end = phase
    windows = [measure.Window(1.0, []) for _ in range((end - begin) // 1_000_000_000)]
    for sent, done, _, _, _ in calls:
        if done < end:
            windows[(done - begin) // 1_000_000_000].latencies.append(((done - sent) / 1e6, 1))
    return windows


def _account(calls: List[Call], operations: measure.Operations) -> Dict[int, dict]:
    """Count every call; return the received retrieve records by trace index."""
    received: Dict[int, dict] = {}
    for _, _, is_learn, code, body in calls:
        status = ""
        if not is_learn and code in measure.OK_HTTP_CODES:
            record = json.loads(body)
            record.pop("kind", None)
            record.pop("schema_version", None)
            received[record["index"]] = record
            status = record["status"]
        operations.count_http(code, status)
    return received


def capture_mismatches(capture: dict, received: Dict[int, dict]) -> int:
    """Offline replay must equal the capture, and the capture the wire."""
    from repro.serving import replay_capture

    recorded = capture.get("responses", [])
    replayed = [
        json.loads(json.dumps(record.to_dict())) for record in replay_capture(capture).served
    ]
    mismatches = abs(len(recorded) - len(replayed))
    mismatches += sum(1 for a, b in zip(recorded, replayed) if a != b)
    by_index = {record["index"]: record for record in recorded}
    mismatches += sum(1 for index, record in received.items() if by_index.get(index) != record)
    return mismatches


def _layer_metrics(spans_path: str, phase, calls: List[Call]) -> Dict[str, tuple]:
    """Server-side span metrics plus the client-side daemon metrics."""
    recorded = spans.SpanRecorder.load(spans_path)
    metrics = spans.layer_metrics(recorded, [phase])
    # Snapshots are not taken inside the phase (see SERVE_OPTIONS): report
    # the server's whole life for them, the start-up generation included.
    lifetime = spans.layer_metrics(recorded, [(0, 2**63)])
    for name in ("journal.snapshot_ms", "journal.snapshots"):
        metrics[name] = lifetime[name]
    server_ns = spans.server_ns_by_request(recorded, [phase])
    overheads = []
    for sent, done, is_learn, code, body in calls:
        if is_learn or code != 200 or done >= phase[1]:
            continue
        index = json.loads(body)["index"]
        if index in server_ns:
            overheads.append((done - sent - server_ns[index]) / 1e6)
    learns = [code for _, _, is_learn, code, _ in calls if is_learn]
    metrics["learn.queued_fraction"] = (
        sum(1 for code in learns if code == 202) / len(learns) if learns else 0.0, "fraction"
    )
    metrics["daemon.overhead_ms_p50"] = (
        measure.nearest_rank(sorted(overheads), 0.50) if overheads else 0.0, "ms"
    )
    return metrics


def run(seed: int, seconds: float, traced: bool, out_dir: str) -> Dict[str, object]:
    inputs = [_client_inputs(seed, client) for client in range(CLIENTS)]
    operations = measure.Operations()
    phase_seconds = max(1, int(seconds / 2 if traced else seconds))
    setup_times = []
    server_cpus = _pin_clients()
    server = None
    try:
        for _ in range(1 if traced else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(out_dir, cpus=server_cpus)
            setup_times.append(server.setup_s)
        phase, calls, rss = _closed_loop(server, inputs, phase_seconds)
        if traced:
            plain_rps = measure.latency_metrics(_windows(phase, calls))["throughput_rps"][0]
            _account(calls, operations)
            server.stop()
            spans_path = os.path.join(out_dir, "daemon-mixed.spans.json")
            server = Server(out_dir, cpus=server_cpus, spans_path=spans_path)
            phase, calls, _ = _closed_loop(server, inputs, phase_seconds)
            retained = server.get("/metrics?format=json")["daemon"]["requests"]
        capture = server.get("/capture")
    finally:
        if server is not None:
            server.stop()
    received = _account(calls, operations)
    mismatches = capture_mismatches(capture, received)
    print(f"daemon-mixed: {operations.summary()} capture_mismatches={mismatches}")
    windows = _windows(phase, calls)
    if not traced:
        metrics = measure.latency_metrics(windows)
        metrics["setup_s"] = (measure.median(setup_times), "s")
        metrics["peak_rss_mb"] = (rss, "MiB")
    else:
        metrics = _layer_metrics(spans_path, phase, calls)
        traced_rps = measure.latency_metrics(windows)["throughput_rps"][0]
        metrics["trace.overhead"] = (traced_rps / plain_rps, "ratio")
        metrics["daemon.retained_requests"] = (retained, "count")
    return measure.result_line(
        correct=mismatches == 0 and operations.not_completed == 0,
        operations=operations,
        metrics=metrics,
    )
