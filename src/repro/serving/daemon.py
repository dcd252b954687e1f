"""Network-facing serving daemon: ``repro serve`` (asyncio HTTP/JSON).

This module promotes the offline trace-replay engine into a long-running
service (ROADMAP item 3) while keeping the repo's standing guarantee --
**bit-identical differential replay** -- across the network boundary:

* Requests arriving over HTTP are stamped with a monotonic microsecond
  arrival clock *inside the single-threaded asyncio loop* and coalesced by
  :class:`_MicroBatcher`, which implements exactly the
  :class:`~repro.serving.scheduler.MicroBatchScheduler` closing rule on live
  arrivals (flush-on-submit when a stamp passes ``open + max_wait_us``,
  strict-inequality timer flushes, size-full flushes at the last arrival).
  Replaying the captured stamps through the offline scheduler therefore
  reproduces the *same batch boundaries*, hence the same admission/routing
  occupancy evolution, the same rankings and the same learning mutations.
* Each flushed batch runs through the same
  :class:`~repro.serving.engine.ServingSession` per-batch pipeline the
  offline replay uses -- there is no second serving implementation to drift.
* ``GET /capture`` (and ``--capture PATH`` at shutdown) exports a
  ``serving-capture`` document: the spec, a pre-serving case-base snapshot,
  the stamped trace, every response and every ``/learn`` mutation batch with
  its application position.  :func:`replay_capture` (also behind
  ``repro serve-trace --capture``) re-serves it offline and must produce
  bit-identical records -- the soak test's contract.

Endpoints (all JSON, wire shapes from :mod:`repro.api.schemas`):

* ``POST /retrieve`` -- one request object, or ``{"requests": [...]}`` for a
  batch.  Wall-clock deadlines (``deadline_ms``/``deadline_us``) are mapped
  into the admission controller's microsecond budget, where the *exact*
  cycle model prices the retrieval; overload triggers the paper's
  admit-to-hardware / degrade-to-software / reject ladder instead of
  unbounded queueing.
* ``POST /learn`` -- streaming case-base mutation events (PR 4 delta
  ingestion).  Applied at the next micro-batch boundary so replay stays
  deterministic; while mutations are queued against a cluster fleet the
  daemon answers ``/retrieve`` with 503 (reconfiguration in progress).
* ``GET /metrics`` -- the session's live metrics snapshot (latency
  percentiles, rejection rates, learning counters) plus daemon counters.
* ``GET /healthz`` / ``GET /readyz`` / ``GET /capture`` -- liveness (always
  200 once the socket is bound), readiness (503 ``{"status": "starting"}``
  while journal recovery replays) and the capture document.

**Durability (PR 7).**  With ``--journal DIR`` every flushed micro-batch and
every applied ``/learn`` mutation batch is appended to an fsync-batched
append-only journal (:class:`~repro.core.journal.DeltaJournal`) *before* any
response future resolves, so a SIGKILL can only lose requests whose clients
never saw a reply.  On restart the daemon loads the newest compacted
snapshot, replays the committed journal tail through the same per-batch
pipeline (absolute trace/batch indices, restored server-occupancy state) and
then serves bit-identically to an uninterrupted daemon.

The HTTP layer is a deliberately small stdlib ``asyncio.start_server``
HTTP/1.1 implementation (keep-alive, ``Content-Length`` bodies): the
container policy bans third-party servers (``aiohttp``), and the daemon's
needs -- five JSON routes on a trusted test network -- do not justify one.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
import time
import urllib.parse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api import schemas
from ..core.case_base import CaseBase
from ..core.exceptions import ReproError
from ..core.journal import DeltaJournal, JournalError
from ..observability import ObservabilityConfig, catalog, trace_id_for
from ..resilience import FaultInjector, RetryPolicy
from .engine import ServedRequest, ServingReport, ServingSession
from .loadgen import TimedRequest
from .scheduler import ScheduledBatch
from .spec import ServingSpec

_LOG = logging.getLogger("repro.serve")

#: Content type of the Prometheus text exposition (``GET /metrics``).
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: HTTP reason phrases for the status codes the daemon emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Serving outcome -> HTTP status for single-request ``POST /retrieve``.
_STATUS_CODES = {
    "served_hardware": 200,
    "served_software": 200,
    "failed": 400,
    "rejected_infeasible": 409,
    "rejected_deadline": 503,
}


def _record_status_code(record: ServedRequest) -> int:
    return _STATUS_CODES.get(record.status.value, 200)


class _MicroBatcher:
    """The live-arrival twin of :class:`MicroBatchScheduler`.

    Stamping and enqueueing happen in one synchronous step on the event
    loop, so stamps are non-decreasing and batch membership is decided
    exactly like the offline scheduler decides it from a recorded trace:

    * a submit whose stamp exceeds ``open_us + max_wait_us`` first closes
      the pending batch at ``open_us + max_wait_us`` (the offline
      "oldest request timed out before this arrival" rule);
    * a batch reaching ``max_batch`` closes at the triggering stamp;
    * the wait timer closes at ``open_us + max_wait_us`` only when the
      clock has *strictly* passed it (rescheduling otherwise), so every
      later stamp is strictly greater than the recorded close and offline
      replay closes the batch at the same boundary;
    * a final drain (shutdown) closes at ``open_us + max_wait_us``, the
      offline end-of-trace rule.
    """

    def __init__(self, daemon: "ServingDaemon") -> None:
        self.daemon = daemon
        self.pending: List[Tuple[int, TimedRequest, asyncio.Future]] = []
        self.open_us = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None

    def submit(
        self, request, deadline_us: Optional[float], note: str
    ) -> asyncio.Future:
        """Stamp one request, enqueue it and return its outcome future."""
        daemon = self.daemon
        stamp = daemon._stamp_us()
        if self.pending and stamp > self.open_us + daemon.max_wait_us:
            self._flush(self.open_us + daemon.max_wait_us)
        entry = TimedRequest(
            arrival_us=stamp, request=request, deadline_us=deadline_us, note=note
        )
        # Absolute frame: indices continue the killed incarnation's numbering
        # after journal recovery, so response index/batch fields stay
        # bit-identical to what an uninterrupted daemon would have served.
        index = daemon._index_base + len(daemon.trace)
        daemon.trace.append(entry)
        future = daemon._loop.create_future()
        if not self.pending:
            self.open_us = stamp
            self._arm_timer()
        self.pending.append((index, entry, future))
        if len(self.pending) >= daemon.max_batch:
            self._flush(stamp)
        return future

    def drain(self) -> None:
        """Close the pending batch at the end-of-trace boundary (shutdown)."""
        if self.pending:
            self._flush(self.open_us + self.daemon.max_wait_us)

    # -- internals -------------------------------------------------------------------

    def _arm_timer(self) -> None:
        deadline_us = self.open_us + self.daemon.max_wait_us
        delay = (deadline_us - self.daemon._now_us()) / 1e6
        # A hair past the boundary: the timer must observe now > deadline.
        self._timer = self.daemon._loop.call_later(
            max(delay, 0.0) + 100e-6, self._timer_fired
        )

    def _timer_fired(self) -> None:
        self._timer = None
        if not self.pending:
            return
        deadline_us = self.open_us + self.daemon.max_wait_us
        if self.daemon._now_us() > deadline_us:
            self._flush(deadline_us)
        else:
            self._timer = self.daemon._loop.call_later(100e-6, self._timer_fired)

    def _flush(self, close_us: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self.pending = self.pending, []
        batch = ScheduledBatch(
            index=self.daemon._next_batch_index(),
            entries=[(index, entry) for index, entry, _ in pending],
            open_us=self.open_us,
            close_us=close_us,
        )
        # Futures are registered daemon-wide, not per flush: a ``requeue``
        # verdict carries a request into a *later* batch, whose records
        # resolve the original future then.
        for index, _, future in pending:
            self.daemon._futures[index] = future
        self.daemon._process_batch(batch)


class ServingDaemon:
    """The serving engine behind live HTTP sockets.

    Parameters
    ----------
    spec:
        The :class:`~repro.serving.spec.ServingSpec` describing the engine
        (single-node or cluster, backend, shards, deadlines, learning).  The
        spec's trace-source axis is ignored -- the network *is* the trace.
    capture:
        Keep the capture document (trace, responses, learn events) in
        memory; required for ``GET /capture`` and ``--capture PATH``.
    max_request_batch:
        Largest ``POST /retrieve`` batch accepted (413 beyond).
    feasibility:
        Optional allocation-layer feasibility checker, as for
        :class:`~repro.serving.engine.ServingEngine`.  Replay builds engines
        without one, so captures meant for offline replay should too.
    journal_dir:
        Directory of the durable delta journal (``repro serve --journal``).
        ``None`` disables durability; an existing journal is recovered on
        :meth:`start` (the daemon is not ready until recovery finishes).
    snapshot_interval:
        Commit groups between compacted snapshots (journal truncation).
    """

    def __init__(
        self,
        spec: ServingSpec,
        *,
        capture: bool = True,
        max_request_batch: int = 256,
        feasibility=None,
        journal_dir: Optional[str] = None,
        snapshot_interval: int = 64,
    ) -> None:
        if max_request_batch < 1:
            raise ReproError(
                f"max_request_batch must be at least 1, got {max_request_batch}"
            )
        if snapshot_interval < 1:
            raise ReproError(
                f"snapshot_interval must be at least 1, got {snapshot_interval}"
            )
        self.spec = spec
        self._feasibility = feasibility
        self.case_base = spec.resolve_case_base()
        #: Pre-serving structural snapshot; the capture embeds it so replay
        #: rebuilds the *exact* case base even after online learning or
        #: ``/learn`` ingestion mutated the live one.
        self._case_base_snapshot = self.case_base.to_dict() if capture else None
        self.engine = spec.build_engine(self.case_base, feasibility=feasibility)
        self.is_cluster = getattr(self.engine, "fleet", None) is not None
        self.session: ServingSession = self.engine.session()
        self.max_batch = self.engine.config.max_batch
        self.max_wait_us = self.engine.config.max_wait_us
        self.max_request_batch = max_request_batch
        self.capture_enabled = capture
        self.trace: List[TimedRequest] = []
        self.responses: Dict[int, ServedRequest] = {}
        self.learn_events: List[Dict[str, object]] = []
        self._queued_mutations: List[List[Mapping]] = []
        self._learn_applied = 0
        self._batch_count = 0
        self._t0 = time.monotonic()
        self._last_stamp_us = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.batcher = _MicroBatcher(self)
        self.address: Optional[Tuple[str, int]] = None
        #: Outstanding response futures keyed by absolute trace index (see
        #: :meth:`_MicroBatcher._flush`).
        self._futures: Dict[int, asyncio.Future] = {}
        # -- durability (PR 7) ---------------------------------------------------
        self._journal_dir = journal_dir
        self._snapshot_interval = snapshot_interval
        self.journal: Optional[DeltaJournal] = None
        #: Absolute index of this incarnation's first trace entry / first
        #: live batch (0 unless recovered from a journal snapshot).
        self._index_base = 0
        self._capture_base_batch = 0
        self._recovered_engine_state: Optional[Mapping] = None
        self._delta_buffer: List[object] = []
        self.ready = journal_dir is None
        self._ready_event = threading.Event()
        if self.ready:
            self._ready_event.set()
        self.recovery_error: Optional[BaseException] = None
        self._recovery_future: Optional[asyncio.Future] = None
        # -- fault injection (connection / learn faults live at this layer;
        #    worker and stream faults live in the cluster engine) ----------------
        self._fault_injector = (
            FaultInjector(spec.fault_plan)
            if spec.fault_plan is not None and len(spec.fault_plan)
            else None
        )
        self._retry_policy = RetryPolicy()
        self._learn_retries = 0
        self._dropped_connections = 0
        # -- observability (PR 8) ------------------------------------------------
        #: Journal recovery summary for structured logs / operators.
        self._recovery_summary: Optional[Dict[str, object]] = None
        self._register_daemon_metrics()

    # -- observability ------------------------------------------------------------------

    @property
    def observability(self):
        """The engine's observability hub (re-resolved after recovery rebuilds)."""
        return self.engine.observability

    def _register_daemon_metrics(self) -> None:
        """Materialise the daemon-level metric families on the engine registry.

        Called at construction and again after journal recovery replaces the
        engine (and with it the registry), so the Prometheus exposition always
        carries the full daemon series set even before first use.
        """
        obs = self.engine.observability
        if not obs.metrics_enabled:
            return
        registry = obs.registry
        catalog.http_requests(registry)
        catalog.daemon_ready(registry)
        catalog.daemon_pending(registry)
        catalog.daemon_reconfiguring(registry)
        # Unlabelled counters scrape as an explicit 0 from the first request,
        # so dashboards can tell "never happened" from "not exported".
        catalog.journal_commits(registry).child()
        catalog.journal_records(registry).child()
        catalog.learn_retries(registry).child()

    def _journal_committed(self, records: int) -> None:
        """Journal commit listener: fold each durable group into the registry."""
        obs = self.engine.observability
        if not obs.metrics_enabled:
            return
        catalog.journal_commits(obs.registry).inc()
        if records:
            catalog.journal_records(obs.registry).inc(records)

    # -- clock & batch plumbing --------------------------------------------------------

    def _now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6

    def _stamp_us(self) -> float:
        """A non-decreasing arrival stamp (the trace's virtual clock)."""
        stamp = max(self._now_us(), self._last_stamp_us)
        self._last_stamp_us = stamp
        return stamp

    def _next_batch_index(self) -> int:
        index = self._batch_count
        self._batch_count += 1
        return index

    def _process_batch(self, batch: ScheduledBatch) -> List[ServedRequest]:
        records = self.session.process_batch(batch)
        if self.capture_enabled:
            for record in records:
                self.responses[record.index] = record
        if self.journal is not None:
            entries = [entry for _, entry in batch.entries]
            self.journal.append({
                "kind": "journal-trace",
                "batch": {
                    "index": batch.index,
                    "open_us": batch.open_us,
                    "close_us": batch.close_us,
                    "entries": [
                        [index, wire] for (index, _), wire in zip(
                            batch.entries, schemas.trace_to_wire(entries)
                        )
                    ],
                },
            })
        # A flush is the deterministic boundary deferred /learn mutations
        # land on: every already-processed batch held only smaller trace
        # indices, every later batch only larger ones, so offline replay can
        # re-apply each mutation batch at the recorded position.
        while self._queued_mutations:
            self._apply_mutations(self._queued_mutations.pop(0))
        # Commit *before* resolving any response future: a reply a client can
        # observe is a reply a restarted daemon will reproduce.  Uncommitted
        # journal tails are dropped by the reader -- those requests never got
        # an answer, so dropping them loses no observable state.
        if self.journal is not None:
            self._journal_sync(batch=batch.index)
            self._maybe_compact()
        for record in records:
            future = self._futures.pop(record.index, None)
            if future is not None and not future.done():
                future.set_result(record)
        return records

    def _apply_mutations(self, events: Sequence[Mapping]) -> Dict[str, object]:
        position = self._index_base + len(self.trace)
        if self.capture_enabled:
            self.learn_events.append(
                {"position": position, "events": [dict(event) for event in events]}
            )
        if self.journal is not None:
            # Journaled before application: partial application on a semantic
            # failure is deterministic, so replay reproduces the identical
            # case-base state either way.
            self.journal.append({
                "kind": "journal-learn",
                "position": position,
                "events": [dict(event) for event in events],
            })
        try:
            applied = schemas.apply_mutation_events(self.case_base, events)
        except ReproError as exc:
            # Shape errors were rejected at ingestion; this is a semantic
            # failure (e.g. replacing an implementation learning already
            # evicted).  Partial application is deterministic -- replay hits
            # the identical state and failure -- so the capture keeps the
            # event batch.
            return {"applied": 0, "error": str(exc)}
        self._learn_applied += applied
        return {
            "applied": applied,
            "revision": self.case_base.revision,
            "implementations": self.case_base.count_implementations(),
        }

    @property
    def reconfiguring(self) -> bool:
        """Whether a queued ``/learn`` batch is awaiting fleet propagation."""
        return self.is_cluster and bool(self._queued_mutations)

    # -- durable journal ----------------------------------------------------------------

    def _record_delta(self, delta) -> None:
        """Delta-log tap: buffer every case-base delta for the next commit."""
        self._delta_buffer.append(delta)

    def _journal_sync(self, **marker: object) -> None:
        """Flush the buffered delta stream and fsync one commit group."""
        assert self.journal is not None
        deltas, self._delta_buffer = self._delta_buffer, []
        events: List[Dict[str, object]] = []
        replayable = True
        for delta in deltas:
            try:
                events.extend(schemas.delta_to_wire_events(delta))
            except schemas.SchemaError:
                # e.g. a bounds change: not expressible as wire mutations;
                # engine-free recovery must start from a newer snapshot.
                replayable = False
        self.journal.append({
            "kind": "journal-deltas",
            "revision": self.case_base.revision,
            "implementations": self.case_base.count_implementations(),
            "replayable": replayable,
            "events": events,
        })
        self.journal.commit(last_stamp_us=self._last_stamp_us, **marker)

    def _snapshot_document(self) -> Dict[str, object]:
        """The compacted ``journal-snapshot`` document (full recovery state)."""
        return schemas.attach_envelope("journal-snapshot", {
            "base_index": self._index_base + len(self.trace),
            "base_batch": self._batch_count,
            "last_stamp_us": self._last_stamp_us,
            "revision": self.case_base.revision,
            "implementations": self.case_base.count_implementations(),
            "engine_state": self.session.state_snapshot(),
            "case_base": self.case_base.to_dict(),
            "spec": self.spec.to_wire(),
        })

    def _maybe_compact(self) -> None:
        """Rotate to a fresh snapshot generation once the journal is long
        enough *and* the serving state is quiescent (no open batch, no queued
        mutations, no requeued requests, every device image current)."""
        assert self.journal is not None
        if self.journal.records_since_snapshot < self._snapshot_interval:
            return
        if self.batcher.pending or self._queued_mutations or self._delta_buffer:
            return
        if not self.session.quiescent():
            return
        self.journal.begin(self.journal.generation + 1, self._snapshot_document())

    def _open_journal(self) -> None:
        """Recover the journal directory and begin a fresh generation.

        Runs on an executor thread while the event loop already answers
        ``/healthz``; every serving route is gated on :attr:`ready` until
        this finishes, so no request observes half-recovered state.
        """
        state = DeltaJournal.load(self._journal_dir)
        if state.snapshot is not None:
            self._restore_from_snapshot(state)
        journal = DeltaJournal(self._journal_dir)
        # A crash between tail replay and this snapshot cannot lose data:
        # ``begin`` writes the new snapshot (which embeds the replayed tail)
        # atomically before deleting the previous generation's files.
        journal.begin(state.generation + 1, self._snapshot_document())
        journal.listener = self._journal_committed
        self.journal = journal
        if self._recovery_summary is None:
            self._recovery_summary = {
                "generation": state.generation + 1,
                "replayed_batches": 0,
                "replayed_requests": 0,
                "base_index": self._index_base,
            }
        else:
            self._recovery_summary["generation"] = state.generation + 1
        self.case_base.delta_log.attach_tap(self._record_delta)
        # Continue the killed incarnation's virtual clock so timer flushes
        # and new arrival stamps stay monotonic with the recovered trace.
        self._t0 = time.monotonic() - self._last_stamp_us / 1e6

    def _restore_from_snapshot(self, state) -> None:
        """Rebuild engine + session from a snapshot and replay the tail."""
        snapshot = state.snapshot
        try:
            spec = ServingSpec.from_wire(snapshot["spec"])
        except (KeyError, schemas.SchemaError) as exc:
            raise JournalError(f"unreadable journal snapshot spec: {exc}") from exc
        if spec != self.spec:
            raise JournalError(
                "the journal was written under a different serving spec; "
                "pass the original spec or point --journal at a fresh directory"
            )
        try:
            case_base = CaseBase.from_dict(snapshot["case_base"])
            base_index = int(snapshot["base_index"])
            base_batch = int(snapshot["base_batch"])
            last_stamp_us = float(snapshot["last_stamp_us"])
            snapshot_revision = int(snapshot["revision"])
            engine_state = snapshot["engine_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal snapshot: {exc}") from exc
        # ``from_dict`` re-numbers revisions from zero; re-anchor the delta
        # log so the fleet's incremental-sync windows stay consistent.
        case_base.delta_log.rebase(case_base.revision)
        base_revision = case_base.revision
        self.case_base = case_base
        self._case_base_snapshot = snapshot["case_base"] if self.capture_enabled else None
        self._recovered_engine_state = (
            engine_state if isinstance(engine_state, Mapping) else None
        )
        self.engine = self.spec.build_engine(case_base, feasibility=self._feasibility)
        self.is_cluster = getattr(self.engine, "fleet", None) is not None
        self._register_daemon_metrics()
        self.session = self.engine.session()
        if isinstance(engine_state, Mapping):
            self.session.restore_state(engine_state)
        self._index_base = base_index
        self._batch_count = base_batch
        self._capture_base_batch = base_batch
        self._last_stamp_us = last_stamp_us
        self.trace = []
        self.responses = {}
        self.learn_events = []
        self._learn_applied = 0
        # Replay the committed tail through the identical per-batch pipeline.
        # Requests in uncommitted (torn) groups were never answered, so
        # dropping them loses nothing a client observed.
        last_deltas: Optional[Mapping] = None
        replayed_batches = 0
        for record in state.records:
            kind = record["kind"]
            if kind == "journal-trace":
                try:
                    batch_doc = record["batch"]
                    indices = [int(index) for index, _ in batch_doc["entries"]]
                    entries = schemas.trace_from_wire(
                        [wire for _, wire in batch_doc["entries"]],
                        requester="http",
                    )
                    batch = ScheduledBatch(
                        index=int(batch_doc["index"]),
                        entries=list(zip(indices, entries)),
                        open_us=float(batch_doc["open_us"]),
                        close_us=float(batch_doc["close_us"]),
                    )
                except (KeyError, TypeError, ValueError, schemas.SchemaError) as exc:
                    raise JournalError(f"malformed journal-trace record: {exc}") from exc
                self.trace.extend(entries)
                for served in self.session.process_batch(batch):
                    if self.capture_enabled:
                        self.responses[served.index] = served
                self._batch_count = max(self._batch_count, batch.index + 1)
                self._last_stamp_us = max(self._last_stamp_us, batch.close_us)
                replayed_batches += 1
            elif kind == "journal-learn":
                events = list(record.get("events", []))
                position = int(record.get("position", 0))
                if self.capture_enabled:
                    self.learn_events.append(
                        {"position": position, "events": [dict(e) for e in events]}
                    )
                try:
                    self._learn_applied += schemas.apply_mutation_events(
                        self.case_base, events
                    )
                except ReproError:
                    # The live daemon answered 409 and kept the (partially
                    # applied, deterministic) state; replay matches it.
                    pass
            elif kind == "journal-deltas":
                last_deltas = record
        if last_deltas is not None:
            advance = int(last_deltas["revision"]) - snapshot_revision
            if (
                advance != self.case_base.revision - base_revision
                or int(last_deltas["implementations"])
                != self.case_base.count_implementations()
            ):
                raise JournalError(
                    "journal tail does not reconcile with the recovered case "
                    "base (revision advance or implementation count mismatch)"
                )
        self._recovery_summary = {
            "generation": state.generation,
            "replayed_batches": replayed_batches,
            "replayed_requests": len(self.trace),
            "base_index": base_index,
        }

    def _recovery_finished(self, future) -> None:
        exc = future.exception()
        if exc is not None:
            self.recovery_error = exc
            _LOG.error("event=serve.recovery_failed error=%r", str(exc))
        else:
            self.ready = True
            summary = self._recovery_summary or {}
            _LOG.info(
                "event=serve.recovered generation=%s replayed_batches=%s "
                "replayed_requests=%s base_index=%s",
                summary.get("generation", 0),
                summary.get("replayed_batches", 0),
                summary.get("replayed_requests", 0),
                summary.get("base_index", 0),
            )
        self._ready_event.set()

    # -- capture ------------------------------------------------------------------------

    def capture_document(self) -> Dict[str, object]:
        """The ``serving-capture`` document replayed by :func:`replay_capture`."""
        if not self.capture_enabled:
            raise ReproError("capture is disabled on this daemon")
        return attach_capture(
            spec=self.spec,
            case_base_snapshot=self._case_base_snapshot,
            trace=self.trace,
            responses=[self.responses[index] for index in sorted(self.responses)],
            learn_events=self.learn_events,
            base_index=self._index_base,
            base_batch=self._capture_base_batch,
            engine_state=self._recovered_engine_state,
        )

    # -- HTTP handlers ------------------------------------------------------------------

    async def _handle_retrieve(self, payload: object) -> Tuple[int, Dict[str, object]]:
        if self.reconfiguring:
            return 503, schemas.error_to_wire(
                "reconfiguring",
                "case-base mutations are queued for fleet propagation; "
                "retry after the pending micro-batch flushes",
                queued_mutation_batches=len(self._queued_mutations),
            )
        if not isinstance(payload, Mapping):
            return 400, schemas.error_to_wire(
                "bad-request", "the /retrieve body must be a JSON object"
            )
        batch_mode = "requests" in payload
        if batch_mode:
            entries = payload["requests"]
            if not isinstance(entries, list):
                return 400, schemas.error_to_wire(
                    "bad-request", "'requests' must be a JSON list"
                )
            if not entries:
                return 400, schemas.error_to_wire(
                    "bad-request", "'requests' must not be empty"
                )
            if len(entries) > self.max_request_batch:
                return 413, schemas.error_to_wire(
                    "batch-too-large",
                    f"{len(entries)} requests exceed the per-call limit of "
                    f"{self.max_request_batch}",
                    limit=self.max_request_batch,
                )
            default_deadline = _wire_deadline_us(payload)
        else:
            entries = [payload]
            default_deadline = None
        # Parse everything up front: a malformed member rejects the whole
        # call before anything is stamped into the trace.
        parsed = []
        for entry in entries:
            request = schemas.request_from_wire(entry, requester="http")
            deadline_us = _wire_deadline_us(entry)
            if deadline_us is None:
                deadline_us = default_deadline
            parsed.append((request, deadline_us, str(entry.get("note", ""))))
        # Submit without awaiting in between: one HTTP call's requests are
        # contiguous in the trace, in body order.
        ingress_wall = time.perf_counter()
        futures = [
            self.batcher.submit(request, deadline_us, note)
            for request, deadline_us, note in parsed
        ]
        records = await asyncio.gather(*futures)
        obs = self.engine.observability
        if obs.trace_enabled:
            # Wall-clock ingress->egress annotation only: never part of span
            # identity, never part of any capture byte.
            wall_us = (time.perf_counter() - ingress_wall) * 1e6
            for record in records:
                obs.annotate_trace(
                    trace_id_for(record.index), http_wall_us=round(wall_us, 1)
                )
        if batch_mode:
            return 200, schemas.attach_envelope(
                "served-batch",
                {"results": [schemas.served_request_to_wire(r) for r in records]},
            )
        record = records[0]
        return _record_status_code(record), schemas.attach_envelope(
            "served-request", schemas.served_request_to_wire(record)
        )

    async def _handle_learn(self, payload: object) -> Tuple[int, Dict[str, object]]:
        if not isinstance(payload, Mapping) or "events" not in payload:
            return 400, schemas.error_to_wire(
                "bad-request", "the /learn body must be {'events': [...]}"
            )
        schemas.check_envelope(payload, kind="learning-delta", required=False)
        events = payload["events"]
        schemas.validate_mutation_events(events)
        if self._fault_injector is not None:
            # Modelled transient ingestion faults (no wall-clock sleeps):
            # the retry loop either succeeds within the policy's attempt
            # budget -- counted, nothing else observable -- or exhausts it
            # and fails *explicitly* before anything is journaled or
            # captured, so replay never re-applies a rejected batch.
            failures = self._fault_injector.learn_failures()
            if failures:
                if failures >= self._retry_policy.max_attempts:
                    return 409, schemas.error_to_wire(
                        "learn-unavailable",
                        f"injected ingestion fault persisted across "
                        f"{self._retry_policy.max_attempts} attempts; the "
                        f"mutation batch was not applied",
                        attempts=self._retry_policy.max_attempts,
                    )
                self._learn_retries += failures
                if self.engine.observability.metrics_enabled:
                    catalog.learn_retries(
                        self.engine.observability.registry
                    ).inc(failures)
        if self.batcher.pending:
            # Deterministic replay needs mutations at batch boundaries;
            # defer until the open batch flushes (at most max_wait_us away).
            self._queued_mutations.append(list(events))
            return 202, schemas.attach_envelope(
                "learning-queued",
                {"queued_events": len(events), "reconfiguring": self.is_cluster},
            )
        outcome = self._apply_mutations(events)
        # Commit the idle-path application (semantic failures included:
        # their partial application is state replay must reproduce) before
        # the client can observe the outcome.
        if self.journal is not None:
            self._journal_sync(learn=True)
        if "error" in outcome:
            return 409, schemas.error_to_wire(
                "mutation-failed", str(outcome["error"])
            )
        return 200, schemas.attach_envelope("learning-applied", dict(outcome))

    def _handle_metrics(self, query: str = "") -> Tuple[int, Union[str, Dict[str, object]]]:
        """``GET /metrics``: Prometheus text by default, ``?format=json`` legacy.

        Deliberately *not* gated on readiness: a scrape during journal
        recovery answers with ``repro_daemon_ready 0`` (and ``"ready": false``
        in the JSON form) instead of a 503, so dashboards see the recovery
        window instead of a gap.
        """
        params = dict(urllib.parse.parse_qsl(query))
        if params.get("format", "prometheus") != "json":
            return 200, self._exposition()
        daemon_section = {
            "requests": len(self.trace),
            "batches": self._batch_count,
            "pending": len(self.batcher.pending),
            "learn_batches": len(self.learn_events),
            "learn_events_applied": self._learn_applied,
            "queued_mutation_batches": len(self._queued_mutations),
            "reconfiguring": self.reconfiguring,
            "engine": "cluster" if self.is_cluster else "single",
            "ready": self.ready,
        }
        if self.journal is not None:
            daemon_section["journal"] = {
                "generation": self.journal.generation,
                "records_since_snapshot": self.journal.records_since_snapshot,
                "base_index": self._index_base,
            }
        if self._fault_injector is not None:
            daemon_section["resilience"] = {
                "learn_retries": self._learn_retries,
                "dropped_connections": self._dropped_connections,
            }
        return 200, schemas.metrics_to_wire(
            self.session.metrics_snapshot(), daemon=daemon_section
        )

    def _exposition(self) -> str:
        """Prometheus text exposition with scrape-time daemon gauges."""
        obs = self.engine.observability
        registry = obs.registry
        if obs.metrics_enabled:
            catalog.daemon_ready(registry).set(1.0 if self.ready else 0.0)
            catalog.daemon_pending(registry).set(float(len(self.batcher.pending)))
            catalog.daemon_reconfiguring(registry).set(
                1.0 if self.reconfiguring else 0.0
            )
        return registry.exposition()

    def _handle_trace(self, trace_id: str) -> Tuple[int, Dict[str, object]]:
        """``GET /trace/<id>``: one stored trace as a span tree."""
        store = self.engine.observability.store
        lookup = trace_id.strip()
        if lookup.isdigit():
            lookup = trace_id_for(int(lookup))
        trace = store.get(lookup)
        if trace is None:
            return 404, schemas.error_to_wire(
                "trace-not-found",
                f"no trace {lookup!r} in the ring (capacity "
                f"{self.engine.observability.config.trace_ring}); recent ids "
                f"are listed by GET /traces/recent",
            )
        return 200, schemas.attach_envelope("trace", trace.to_dict())

    def _handle_traces_recent(self, query: str) -> Tuple[int, Dict[str, object]]:
        """``GET /traces/recent``: newest-first trace summaries from the ring."""
        params = dict(urllib.parse.parse_qsl(query))
        try:
            limit = int(params.get("limit", "20"))
        except ValueError:
            return 400, schemas.error_to_wire(
                "bad-request", f"bad limit: {params.get('limit')!r}"
            )
        obs = self.engine.observability
        traces = obs.store.recent(limit=max(limit, 0))
        return 200, schemas.attach_envelope("trace-list", {
            "traces": [trace.summary() for trace in traces],
            "stored": len(obs.store),
            "ring": obs.config.trace_ring,
            "sample_rate": obs.config.trace_sample_rate,
        })

    def _handle_healthz(self) -> Tuple[int, Dict[str, object]]:
        """Liveness: 200 from the moment the socket is bound."""
        return 200, schemas.attach_envelope(
            "health",
            {
                "status": "ok" if self.ready else "starting",
                "engine": "cluster" if self.is_cluster else "single",
                "requests": len(self.trace),
            },
        )

    def _handle_readyz(self) -> Tuple[int, Dict[str, object]]:
        """Readiness: 503 until journal recovery finished (500 if it failed)."""
        if self.recovery_error is not None:
            return 500, schemas.error_to_wire(
                "recovery-failed", str(self.recovery_error)
            )
        if not self.ready:
            return 503, schemas.attach_envelope("health", {"status": "starting"})
        return 200, schemas.attach_envelope("health", {"status": "ready"})

    async def _dispatch(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> Tuple[int, Union[str, Dict[str, object]]]:
        routes = {
            "/healthz": ("GET", None),
            "/readyz": ("GET", None),
            "/metrics": ("GET", None),
            "/traces/recent": ("GET", None),
            "/capture": ("GET", None),
            "/retrieve": ("POST", self._handle_retrieve),
            "/learn": ("POST", self._handle_learn),
        }
        if path.startswith("/trace/"):
            if method != "GET":
                return 405, schemas.error_to_wire(
                    "method-not-allowed", f"{path} expects GET"
                )
            route = (method, None)
        else:
            route = routes.get(path)
        if route is None:
            return 404, schemas.error_to_wire("not-found", f"no route for {path}")
        expected_method, handler = route
        if method != expected_method:
            return 405, schemas.error_to_wire(
                "method-not-allowed", f"{path} expects {expected_method}"
            )
        # /metrics joins the liveness routes outside the ready gate so
        # scrapes keep landing *during* journal recovery (gauge ready=0).
        if path not in ("/healthz", "/readyz", "/metrics") and not self.ready:
            if self.recovery_error is not None:
                return 503, schemas.error_to_wire(
                    "recovery-failed", str(self.recovery_error)
                )
            return 503, schemas.error_to_wire(
                "starting",
                "journal recovery in progress; poll /readyz",
            )
        try:
            if handler is None:
                if path == "/healthz":
                    return self._handle_healthz()
                if path == "/readyz":
                    return self._handle_readyz()
                if path == "/metrics":
                    return self._handle_metrics(query)
                if path == "/traces/recent":
                    return self._handle_traces_recent(query)
                if path.startswith("/trace/"):
                    return self._handle_trace(path[len("/trace/"):])
                return 200, self.capture_document()
            payload = schemas.loads(body.decode("utf-8", errors="replace"))
            return await handler(payload)
        except schemas.SchemaError as exc:
            return 400, schemas.error_to_wire("bad-request", str(exc))
        except ReproError as exc:
            return 400, schemas.error_to_wire("bad-request", str(exc))
        except Exception as exc:  # pragma: no cover - last-resort guard
            return 500, schemas.error_to_wire(
                "internal-error", f"{type(exc).__name__}: {exc}"
            )

    # -- HTTP/1.1 plumbing --------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._fault_injector is not None:
            fault = self._fault_injector.connection_fault()
            if fault is not None:
                if fault.kind == "conn_drop":
                    # The injected network fault the client's retry loop must
                    # absorb: close without a byte of response.
                    self._dropped_connections += 1
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()
                    return
                # conn_stall: delay the accept path, then serve normally
                # (bounded so the harness never hangs a test run).
                await asyncio.sleep(min(fault.duration_us, 200_000.0) / 1e6)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    self._write_response(
                        writer, 400,
                        schemas.error_to_wire("bad-request", "malformed request line"),
                        keep_alive=False,
                    )
                    break
                method, target, _version = parts
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > 16 * 1024 * 1024:
                    self._write_response(
                        writer, 400,
                        schemas.error_to_wire("bad-request", "bad Content-Length"),
                        keep_alive=False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                path, _, query = target.partition("?")
                status, document = await self._dispatch(method, path, body, query)
                self._count_http(path, status)
                keep_alive = headers.get("connection", "").lower() != "close"
                self._write_response(writer, status, document, keep_alive=keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancels live keep-alive connections; end
            # the handler quietly instead of tracebacking through the
            # streams callback.
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _count_http(self, path: str, status: int) -> None:
        """Fold one handled HTTP exchange into the registry (bounded labels)."""
        obs = self.engine.observability
        if not obs.metrics_enabled:
            return
        route = path if path in (
            "/healthz", "/readyz", "/metrics", "/capture",
            "/retrieve", "/learn", "/traces/recent",
        ) else ("/trace" if path.startswith("/trace/") else "other")
        catalog.http_requests(obs.registry).labels(
            route=route, code=str(status)
        ).inc()

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        document: Union[str, Dict[str, object]],
        *,
        keep_alive: bool,
    ) -> None:
        if isinstance(document, str):
            # Plain-text body (the Prometheus exposition).
            body = document.encode("utf-8")
            content_type = _PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- lifecycle ----------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``.

        With a journal directory, recovery (snapshot load + tail replay)
        runs on an executor thread after the bind: ``/healthz`` answers
        immediately while ``/readyz`` and the serving routes gate on the
        recovery finishing.
        """
        self._loop = asyncio.get_running_loop()
        self._t0 = time.monotonic()
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        _LOG.info(
            "event=serve.start bind=%s:%s engine=%s spec_hash=%s journal=%s",
            self.address[0],
            self.address[1],
            "cluster" if self.is_cluster else "single",
            self.spec.spec_hash(),
            self._journal_dir or "none",
        )
        if self._journal_dir is not None and self.journal is None:
            self._recovery_future = self._loop.run_in_executor(
                None, self._open_journal
            )
            self._recovery_future.add_done_callback(self._recovery_finished)
        return self.address

    async def stop(self, *, capture_path: Optional[str] = None) -> None:
        """Stop accepting, drain the pending batch, optionally write capture."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._recovery_future is not None and not self._recovery_future.done():
            with contextlib.suppress(BaseException):
                await self._recovery_future
        self.batcher.drain()
        while self._queued_mutations:
            self._apply_mutations(self._queued_mutations.pop(0))
        # Requests still requeued at shutdown terminalise as explicit
        # deadline rejections -- their waiting clients get a real reply.
        for record in self.session.drain_requeued():
            if self.capture_enabled:
                self.responses[record.index] = record
            future = self._futures.pop(record.index, None)
            if future is not None and not future.done():
                future.set_result(record)
        if self.journal is not None:
            self._journal_sync(shutdown=True)
            self.case_base.delta_log.detach_tap(self._record_delta)
            self.journal.close()
        if capture_path and self.capture_enabled:
            with open(capture_path, "w", encoding="utf-8") as stream:
                stream.write(schemas.dumps(self.capture_document()))
        _LOG.info(
            "event=serve.drain requests=%s batches=%s learn_batches=%s",
            len(self.trace),
            self._batch_count,
            len(self.learn_events),
        )

    def finish(self) -> ServingReport:
        """Close the serving session and return its final report."""
        self.batcher.drain()
        return self.session.finish()


def attach_capture(
    *,
    spec: ServingSpec,
    case_base_snapshot,
    trace: Sequence[TimedRequest],
    responses: Sequence[ServedRequest],
    learn_events: Sequence[Mapping],
    base_index: int = 0,
    base_batch: int = 0,
    engine_state: Optional[Mapping] = None,
) -> Dict[str, object]:
    """Assemble a versioned ``serving-capture`` document.

    A journal-recovered daemon's capture starts at its snapshot point:
    ``base_index`` / ``base_batch`` shift the replayed trace and batch
    indices into the original daemon's absolute frame, and ``engine_state``
    carries the snapshot's server-occupancy state so replay prices the first
    post-snapshot batches against the same backlog.  The three keys are
    omitted for ordinary (fresh-start) captures, keeping their documents
    byte-identical with earlier releases.
    """
    payload: Dict[str, object] = {
        "spec": spec.to_wire(),
        "case_base": case_base_snapshot,
        "trace": schemas.trace_to_wire(trace),
        "responses": [schemas.served_request_to_wire(r) for r in responses],
        "learn_events": [dict(event) for event in learn_events],
    }
    if base_index or base_batch or engine_state is not None:
        payload["base_index"] = int(base_index)
        payload["base_batch"] = int(base_batch)
        payload["engine_state"] = (
            dict(engine_state) if engine_state is not None else None
        )
    return schemas.attach_envelope("serving-capture", payload)


def replay_capture(
    document: Mapping,
    *,
    observability: Optional[ObservabilityConfig] = None,
    with_engine: bool = False,
):
    """Re-serve a capture offline; the differential twin of the live daemon.

    Rebuilds the case base from the capture's pre-serving snapshot,
    constructs the engine from the embedded spec, replays the stamped trace
    through the offline scheduler and re-applies every ``/learn`` mutation
    batch at its recorded position.  The returned report's records must be
    bit-identical to the daemon's captured responses (rankings, similarity
    doubles, admission decisions) -- the capture/replay soak gate.

    ``observability`` overrides the capture spec's observability axis (the
    one knob that cannot change a replayed byte); ``with_engine=True``
    returns ``(report, engine)`` so callers (``repro trace``) can read the
    engine's trace ring after the replay.
    """
    schemas.check_envelope(document, kind="serving-capture")
    for key in ("spec", "case_base", "trace"):
        if key not in document:
            raise schemas.SchemaError(f"capture document is missing {key!r}")
    spec = ServingSpec.from_wire(document["spec"])
    if observability is not None:
        spec = spec.replace(observability=observability)
    try:
        case_base = CaseBase.from_dict(document["case_base"])
    except (KeyError, TypeError, ValueError) as exc:
        raise schemas.SchemaError(f"malformed capture case base: {exc}") from exc
    trace = schemas.trace_from_wire(document["trace"], requester="http")
    engine = spec.build_engine(case_base)
    session = engine.session()
    base_index = int(document.get("base_index", 0) or 0)
    base_batch = int(document.get("base_batch", 0) or 0)
    engine_state = document.get("engine_state")
    if isinstance(engine_state, Mapping):
        session.restore_state(engine_state)
    mutations = sorted(
        (dict(event) for event in document.get("learn_events", [])),
        key=lambda event: int(event.get("position", 0)),
    )
    for batch in engine.scheduler.batches(trace):
        if base_index or base_batch:
            # Journal-recovered captures live in the original daemon's
            # absolute index frame (see ``attach_capture``).
            batch = ScheduledBatch(
                index=batch.index + base_batch,
                entries=[
                    (index + base_index, entry) for index, entry in batch.entries
                ],
                open_us=batch.open_us,
                close_us=batch.close_us,
            )
        first_index = batch.entries[0][0]
        while mutations and int(mutations[0].get("position", 0)) <= first_index:
            with contextlib.suppress(ReproError):
                schemas.apply_mutation_events(
                    case_base, mutations.pop(0).get("events", [])
                )
        session.process_batch(batch)
    while mutations:
        with contextlib.suppress(ReproError):
            schemas.apply_mutation_events(case_base, mutations.pop(0).get("events", []))
    report = session.finish()
    if with_engine:
        return report, engine
    return report


def run_daemon(
    spec: ServingSpec,
    *,
    host: str = "127.0.0.1",
    port: int = 8734,
    capture_path: Optional[str] = None,
    max_request_batch: int = 256,
    journal_dir: Optional[str] = None,
    snapshot_interval: int = 64,
    announce=None,
) -> None:
    """Blocking entry point behind ``repro serve`` (SIGINT/SIGTERM to stop)."""

    async def _main() -> None:
        daemon = ServingDaemon(
            spec,
            max_request_batch=max_request_batch,
            journal_dir=journal_dir,
            snapshot_interval=snapshot_interval,
        )
        bound_host, bound_port = await daemon.start(host, port)
        if announce is not None:
            announce(bound_host, bound_port)
        if daemon._recovery_future is not None:
            # Surface recovery failures instead of serving 503s forever.
            await daemon._recovery_future
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await daemon.stop(capture_path=capture_path)

    asyncio.run(_main())


class DaemonThread:
    """A daemon on a background thread with its own event loop (test helper).

    .. code-block:: python

        with DaemonThread(spec) as handle:
            requests.post(f"http://{handle.host}:{handle.port}/retrieve", ...)

    The context manager waits for the socket to bind before returning and
    performs an orderly drain (flushing the pending micro-batch exactly like
    the offline end-of-trace rule) on exit.
    """

    def __init__(
        self,
        spec: ServingSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        capture_path: Optional[str] = None,
        max_request_batch: int = 256,
        journal_dir: Optional[str] = None,
        snapshot_interval: int = 64,
        wait_ready: bool = True,
        hard_stop: bool = False,
    ) -> None:
        self.spec = spec
        self.host = host
        self.port = port
        self.capture_path = capture_path
        self.max_request_batch = max_request_batch
        self.journal_dir = journal_dir
        self.snapshot_interval = snapshot_interval
        #: Block ``__enter__`` until journal recovery finished (and re-raise
        #: its error); set False to poke ``/readyz`` mid-recovery.
        self.wait_ready = wait_ready
        #: Exit by dropping the socket without draining or committing -- the
        #: in-process stand-in for ``kill -9`` in crash-recovery tests.
        self.hard_stop = hard_stop
        self.daemon: Optional[ServingDaemon] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    def __enter__(self) -> "DaemonThread":
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise ReproError("serving daemon failed to start within 30 s")
        if self._startup_error is not None:
            raise self._startup_error
        if self.wait_ready and self.daemon is not None:
            if not self.daemon._ready_event.wait(timeout=60.0):
                self.__exit__(None, None, None)
                raise ReproError("journal recovery did not finish within 60 s")
            if self.daemon.recovery_error is not None:
                # __exit__ never runs when __enter__ raises; stop the thread
                # here so a failed-recovery test leaves nothing behind.
                error = self.daemon.recovery_error
                self.__exit__(None, None, None)
                raise error
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup failures to __enter__
            self._startup_error = exc
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.daemon = ServingDaemon(
            self.spec,
            max_request_batch=self.max_request_batch,
            journal_dir=self.journal_dir,
            snapshot_interval=self.snapshot_interval,
        )
        self.host, self.port = await self.daemon.start(self.host, self.port)
        self._started.set()
        await self._stop.wait()
        if self.hard_stop:
            # Crash simulation: close the socket and vanish.  Nothing drains,
            # nothing commits -- exactly the state a SIGKILL leaves behind
            # (committed journal groups durable, the torn tail dropped).
            if self.daemon._server is not None:
                self.daemon._server.close()
            if self.daemon._recovery_future is not None:
                with contextlib.suppress(BaseException):
                    await self.daemon._recovery_future
        else:
            await self.daemon.stop(capture_path=self.capture_path)


def _wire_deadline_us(payload: Mapping) -> Optional[float]:
    """The microsecond deadline budget of one wire entry.

    ``deadline_us`` wins over ``deadline_ms`` (a wall-clock millisecond
    deadline mapped onto the cycle model's microsecond budget).
    """
    if not isinstance(payload, Mapping):
        return None
    if payload.get("deadline_us") is not None:
        try:
            return float(payload["deadline_us"])
        except (TypeError, ValueError) as exc:
            raise schemas.SchemaError(f"bad deadline_us: {payload['deadline_us']!r}") from exc
    if payload.get("deadline_ms") is not None:
        try:
            return float(payload["deadline_ms"]) * 1000.0
        except (TypeError, ValueError) as exc:
            raise schemas.SchemaError(f"bad deadline_ms: {payload['deadline_ms']!r}") from exc
    return None
