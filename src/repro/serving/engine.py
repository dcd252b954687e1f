"""The serving engine: QoS-aware micro-batched request serving, end to end.

:class:`ServingEngine` wires the serving subsystem together into the
component the ROADMAP's "heavy traffic" north star asks for -- the layer that
turns a live *stream* of function requests into batched work for the fast
primitives built in earlier PRs:

    trace -> MicroBatchScheduler -> AdmissionController -> ShardedRetriever
          -> (PR 1 vectorized backend, PR 2 cycle engines) -> MetricsCollector

Replays run on virtual (trace) time and are fully deterministic; the
wall-clock cost of the dispatch loop is measured separately and reported as
host throughput.  Per-request outcomes keep the full merged ranking, the
admission decision's modelled latency decomposition (queue wait, server
occupancy, exact cycle-derived service time) and a reason string for every
rejection, so a replay doubles as a QoS audit trail.

A structurally unservable request (unknown type, no constraints, bounds-table
gap) is reported as ``FAILED`` instead of aborting the replay -- a server
must survive malformed traffic.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..allocation.feasibility import FeasibilityChecker
from ..core.caching import RevisionTrackedCache
from ..core.case_base import CaseBase
from ..core.deltas import DeltaKind, DeltaSummary
from ..core.exceptions import ReproError
from ..core.learning import CaseRetainer, CaseReviser, CBRCycle, CycleReport, OutcomeRecord
from ..core.request import FunctionRequest
from ..core.retrieval import RetrievalEngine, RetrievalResult
from ..hardware.retrieval_unit import HardwareConfig
from ..observability import Observability, ObservabilityConfig, catalog
from .admission import AdmissionController, AdmissionDecision, AdmissionVerdict
from .loadgen import TimedRequest, trace_from_requests
from .metrics import MetricsCollector
from .scheduler import MicroBatchScheduler
from .shards import ShardedRetriever


class ServingStatus(enum.Enum):
    """Final outcome of one request in a serving replay."""

    SERVED_HARDWARE = "served_hardware"
    SERVED_SOFTWARE = "served_software"
    REJECTED_DEADLINE = "rejected_deadline"
    REJECTED_INFEASIBLE = "rejected_infeasible"
    FAILED = "failed"

    @property
    def served(self) -> bool:
        """Whether the request received a usable ranking."""
        return self in (ServingStatus.SERVED_HARDWARE, ServingStatus.SERVED_SOFTWARE)


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of one serving engine instance."""

    #: Micro-batching policy (see :class:`~repro.serving.scheduler.MicroBatchScheduler`).
    max_batch: int = 32
    max_wait_us: float = 500.0
    #: Case-base partitioning (see :class:`~repro.serving.shards.ShardedRetriever`).
    shard_count: int = 1
    backend: str = "vectorized"
    #: Two-stage retrieval screen (``"off"`` or ``"bounds"``): the vectorized
    #: backend prunes implementation blocks through a rigorous similarity
    #: upper bound before the exact kernel re-ranks the survivors; proven
    #: bit-identical to the full scan, with transparent fall-through.
    prefilter: str = "off"
    #: Admission / service-time modelling (see
    #: :class:`~repro.serving.admission.AdmissionController`).
    cycle_engine: str = "auto"
    clock_mhz: float = 66.0
    deadline_us: Optional[float] = None
    degrade_to_software: bool = True
    hardware_config: Optional[HardwareConfig] = None
    #: Retrieval mode applied per request.
    n_best: int = 3
    threshold: Optional[float] = None
    #: Online CBR learning (revise + retain fed back between micro-batches).
    learn: bool = False
    learning_rate: float = 0.5
    novelty_threshold: float = 0.9
    learn_capacity: int = 16
    #: Tracing + live-metrics instrumentation (purely observational: it
    #: never changes a ranking, a capture byte or a journal byte).
    observability: ObservabilityConfig = ObservabilityConfig()

    def __post_init__(self) -> None:
        if isinstance(self.observability, Mapping):
            object.__setattr__(
                self,
                "observability",
                ObservabilityConfig.from_payload(self.observability),
            )
        elif self.observability is None:
            object.__setattr__(self, "observability", ObservabilityConfig())
        if self.n_best < 1:
            raise ReproError(f"n_best must be at least 1, got {self.n_best}")
        if self.deadline_us is not None and self.deadline_us < 0:
            raise ReproError(f"deadline_us must be non-negative, got {self.deadline_us}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ReproError(
                f"learning_rate must lie within [0, 1], got {self.learning_rate}"
            )
        if not 0.0 <= self.novelty_threshold <= 1.0:
            raise ReproError(
                f"novelty_threshold must lie within [0, 1], got {self.novelty_threshold}"
            )
        if self.learn_capacity < 1:
            raise ReproError(
                f"learn_capacity must be at least 1, got {self.learn_capacity}"
            )
        if self.prefilter not in ("off", "bounds"):
            raise ReproError(
                f"prefilter must be 'off' or 'bounds', got {self.prefilter!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot (for report files).

        ``asdict`` recurses into the nested ``hardware_config`` dataclass.
        """
        return asdict(self)


@dataclass
class ServedRequest:
    """Outcome record of one trace entry."""

    index: int
    arrival_us: float
    batch_index: int
    status: ServingStatus
    wait_us: float = 0.0
    queue_us: float = 0.0
    service_us: float = 0.0
    #: Modelled arrival-to-completion latency; ``None`` when not served.
    latency_us: Optional[float] = None
    #: Exact modelled retrieval cycles on the serving path.
    cycles: int = 0
    result: Optional[RetrievalResult] = None
    reason: str = ""
    #: Fleet worker that served the request (cluster serving only; the
    #: single-node engine leaves it empty).
    worker: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable outcome (ranking flattened to IDs/similarities)."""
        data: Dict[str, object] = {
            "index": self.index,
            "arrival_us": self.arrival_us,
            "batch": self.batch_index,
            "status": self.status.value,
            "wait_us": self.wait_us,
            "queue_us": self.queue_us,
            "service_us": self.service_us,
            "latency_us": self.latency_us,
            "cycles": self.cycles,
        }
        if self.worker:
            data["worker"] = self.worker
        if self.result is not None:
            data["ranking"] = [
                {"implementation_id": entry.implementation_id,
                 "similarity": entry.similarity}
                for entry in self.result.ranked
            ]
        if self.reason:
            data["reason"] = self.reason
        return data


@dataclass
class ServingReport:
    """Everything one trace replay produced."""

    config: ServingConfig
    served: List[ServedRequest] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration of the dispatch loop on the replay host."""
        return float(self.metrics.get("wall_seconds", 0.0))

    def rankings(self) -> List[Optional[List[Tuple[int, float]]]]:
        """Per-request ``(implementation_id, similarity)`` rankings, trace order.

        ``None`` marks requests that were not served; this is the
        bit-identity surface the sharded/unsharded compare mode checks.
        """
        return [
            [
                (entry.implementation_id, entry.similarity)
                for entry in record.result.ranked
            ]
            if record.result is not None
            else None
            for record in self.served
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable report (CLI ``--json`` output shape)."""
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics,
            "requests": [record.to_dict() for record in self.served],
        }


class OnlineLearner:
    """Feeds served outcomes back through the CBR revise/retain cycle.

    The paper defers run-time case-base updates to future work;
    :mod:`repro.core.learning` models them, and this adapter wires that
    :class:`~repro.core.learning.CBRCycle` into the serving loop: after each
    micro-batch, every served request's delivered ranking is treated as a
    measured outcome (the application observed the requested QoS values from
    the reused best variant).  The revise step blends the stored case towards
    those values; the retain step inserts a new case when no stored variant
    is similar enough (``novelty_threshold``), subject to the per-type
    ``learn_capacity`` limit.  Mutations land between micro-batches, and the
    delta-propagation subsystem keeps the sharded/vectorized/cosim caches
    patched in O(touched types) instead of O(case base) per retained case.
    """

    def __init__(self, case_base: CaseBase, config: "ServingConfig") -> None:
        engine = RetrievalEngine(case_base, backend=config.backend)
        self.cycle = CBRCycle(
            engine,
            reviser=CaseReviser(learning_rate=config.learning_rate),
            retainer=CaseRetainer(
                engine,
                novelty_threshold=config.novelty_threshold,
                max_implementations_per_type=config.learn_capacity,
            ),
        )
        self.revised_count = 0
        self.retained_count = 0

    def observe(self, request: FunctionRequest, result: RetrievalResult) -> None:
        """Feed one served request's outcome back into revise + retain."""
        best = result.best
        if best is None:
            return
        measured = {
            attribute.attribute_id: attribute.value
            for attribute in request.sorted_attributes()
        }
        if not measured:
            return
        outcome = OutcomeRecord(
            type_id=request.type_id,
            implementation_id=best.implementation_id,
            measured_attributes=measured,
        )
        report = CycleReport(retrieval=result, reused=best)
        self.cycle.feedback(
            report, outcome, retain_target=best.implementation.target
        )
        if report.revision is not None and report.revision.changed:
            self.revised_count += 1
        if report.retained is not None:
            self.retained_count += 1


class ServingSession:
    """One serving run over an engine, fed batch by batch.

    The offline :meth:`ServingEngine.serve` replay and the network daemon
    (:mod:`repro.serving.daemon`) drive the *same* per-batch pipeline through
    this object -- screen, admission-assess (with occupancy state carried
    across batches), sharded retrieval, feasibility audit, learning feedback,
    metrics observation.  That shared path is what makes the daemon's
    responses bit-identical to an offline replay of its captured trace: there
    is no second implementation to drift.

    Feed :class:`~repro.serving.scheduler.ScheduledBatch` objects to
    :meth:`process_batch` (batch indices and trace indices must be globally
    increasing, as the scheduler produces them); read
    :meth:`metrics_snapshot` at any point (non-mutating -- safe mid-run, even
    over a cluster fleet); call :meth:`finish` once for the final
    :class:`ServingReport`.
    """

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.observability = engine.observability
        self.metrics = MetricsCollector(
            registry=(
                self.observability.registry
                if self.observability.metrics_enabled
                else None
            )
        )
        #: Outcome records keyed by trace index (sorted into a report later).
        self.records: Dict[int, ServedRequest] = {}
        self._admission_state = engine._admission_state()
        learner = engine.learner
        self._learn_baseline = (
            {
                "revised": learner.revised_count,
                "retained": learner.retained_count,
                "implementations": engine.case_base.count_implementations(),
                "revision": engine.case_base.revision,
            }
            if learner is not None
            else None
        )
        #: Requests carried into the next batch by the ``REQUEUE`` verdict:
        #: ``(trace_index, entry, attempts, last_batch_index, last_close_us)``.
        self._requeued: List[Tuple[int, TimedRequest, int, int, float]] = []
        policy = getattr(engine, "retry_policy", None)
        self._requeue_limit = policy.max_attempts if policy is not None else 1
        self._start = time.perf_counter()

    def process_batch(self, batch) -> List[ServedRequest]:
        """Serve one scheduled micro-batch; returns its records in trace order."""
        engine = self.engine
        observability = self.observability
        observability.begin_batch(
            batch.index, batch.open_us, batch.close_us, size=len(batch)
        )
        self.metrics.observe_batch(len(batch))
        produced: Dict[int, ServedRequest] = {}
        # Requeued carry-overs re-enter the dispatch ahead of this batch's
        # arrivals (they are older); they were already screened when first
        # dispatched, so they skip straight to admission.
        carried = self._requeued
        self._requeued = []
        requeue_attempts = {index: attempts for index, _, attempts, _, _ in carried}
        dispatchable: List[Tuple[int, TimedRequest]] = [
            (trace_index, entry) for trace_index, entry, _, _, _ in carried
        ]
        for trace_index, entry in batch.entries:
            failure = engine._screen(entry.request)
            if failure is not None:
                produced[trace_index] = ServedRequest(
                    index=trace_index,
                    arrival_us=entry.arrival_us,
                    batch_index=batch.index,
                    status=ServingStatus.FAILED,
                    wait_us=max(0.0, batch.close_us - entry.arrival_us),
                    reason=failure,
                )
            else:
                dispatchable.append((trace_index, entry))
        if dispatchable:
            decisions = engine._assess_batch(
                self._admission_state,
                [entry for _, entry in dispatchable],
                batch.close_us,
            )
            admitted: List[Tuple[int, TimedRequest, AdmissionDecision]] = []
            for (trace_index, entry), decision in zip(dispatchable, decisions):
                if decision.verdict.admitted:
                    admitted.append((trace_index, entry, decision))
                elif decision.verdict is AdmissionVerdict.REQUEUE:
                    attempts = requeue_attempts.get(trace_index, 0) + 1
                    if attempts >= self._requeue_limit:
                        produced[trace_index] = ServedRequest(
                            index=trace_index,
                            arrival_us=entry.arrival_us,
                            batch_index=batch.index,
                            status=ServingStatus.REJECTED_DEADLINE,
                            wait_us=decision.wait_us,
                            queue_us=decision.queue_us,
                            service_us=decision.service_us,
                            cycles=decision.cycles,
                            reason=(
                                f"{decision.reason} (requeue budget of "
                                f"{self._requeue_limit} attempts exhausted)"
                            ),
                        )
                    else:
                        self._requeued.append(
                            (trace_index, entry, attempts, batch.index, batch.close_us)
                        )
                else:
                    produced[trace_index] = ServedRequest(
                        index=trace_index,
                        arrival_us=entry.arrival_us,
                        batch_index=batch.index,
                        status=ServingStatus.REJECTED_DEADLINE,
                        wait_us=decision.wait_us,
                        queue_us=decision.queue_us,
                        service_us=decision.service_us,
                        cycles=decision.cycles,
                        reason=decision.reason,
                    )
            if admitted:
                results = engine.retriever.retrieve_batch(
                    [entry.request for _, entry, _ in admitted],
                    n=engine.config.n_best,
                    threshold=engine.config.threshold,
                )
                for (trace_index, entry, decision), result in zip(admitted, results):
                    infeasible = engine.admission.feasibility_failure(result)
                    if infeasible is not None:
                        status = ServingStatus.REJECTED_INFEASIBLE
                        worker = ""
                        latency_us: Optional[float] = None
                        reason = infeasible
                    else:
                        status, worker = engine._served_status(decision)
                        latency_us = decision.latency_us
                        reason = decision.reason
                    produced[trace_index] = ServedRequest(
                        index=trace_index,
                        arrival_us=entry.arrival_us,
                        batch_index=batch.index,
                        status=status,
                        wait_us=decision.wait_us,
                        queue_us=decision.queue_us,
                        service_us=decision.service_us,
                        latency_us=latency_us,
                        cycles=decision.cycles,
                        result=result,
                        reason=reason,
                        worker=worker,
                    )
                if engine.learner is not None:
                    # Feed outcomes back between micro-batches, in trace
                    # order: the next batch is served by the evolved case
                    # base, with the delta subsystem patching every cache
                    # incrementally.
                    for (trace_index, entry, _), result in zip(admitted, results):
                        record = produced[trace_index]
                        if record.status.served:
                            engine.learner.observe(entry.request, result)
        batch_records = [produced[index] for index in sorted(produced)]
        observability.end_batch()
        for record in batch_records:
            self.records[record.index] = record
            self.metrics.observe_request(
                record.status.value,
                latency_us=record.latency_us,
                hardware_cycles=(
                    record.cycles
                    if record.status is ServingStatus.SERVED_HARDWARE
                    else 0
                ),
                software_cycles=(
                    record.cycles
                    if record.status is ServingStatus.SERVED_SOFTWARE
                    else 0
                ),
                wait_us=record.wait_us,
                queue_us=record.queue_us,
                service_us=record.service_us,
            )
            observability.record_request(record)
        return batch_records

    def _learning_section(self) -> Optional[Dict[str, object]]:
        if self._learn_baseline is None:
            return None
        engine, baseline = self.engine, self._learn_baseline
        return {
            "revised": engine.learner.revised_count - baseline["revised"],
            "retained": engine.learner.retained_count - baseline["retained"],
            "implementations_before": baseline["implementations"],
            "implementations_after": engine.case_base.count_implementations(),
            "revisions": engine.case_base.revision - baseline["revision"],
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """A mid-run metrics report (``GET /metrics``).

        Deliberately skips :meth:`ServingEngine._extend_metrics`: the cluster
        engine's extension *drains* the fleet (a mutating sync), which must
        only happen when the session finishes.
        """
        self.metrics.wall_seconds = time.perf_counter() - self._start
        report = self.metrics.report()
        learning = self._learning_section()
        if learning is not None:
            report["learning"] = learning
        return report

    def drain_requeued(self) -> List[ServedRequest]:
        """Terminalise requests still requeued when the session ends.

        A requeued request that never found a recovered worker cannot stay
        in limbo: it becomes an explicit deadline rejection, recorded (and
        counted in the metrics) exactly the same way in a live daemon drain
        and in an offline replay, so captures stay bit-identical.
        """
        drained: List[ServedRequest] = []
        for trace_index, entry, attempts, batch_index, close_us in self._requeued:
            record = ServedRequest(
                index=trace_index,
                arrival_us=entry.arrival_us,
                batch_index=batch_index,
                status=ServingStatus.REJECTED_DEADLINE,
                wait_us=max(0.0, close_us - entry.arrival_us),
                reason=(
                    f"requeued {attempts} time(s); the session ended before a "
                    "quarantined worker recovered"
                ),
            )
            self.records[trace_index] = record
            self.metrics.observe_request(
                record.status.value, latency_us=None, wait_us=record.wait_us
            )
            self.observability.record_request(record)
            drained.append(record)
        self._requeued = []
        return drained

    def state_snapshot(self) -> Dict[str, object]:
        """Restorable server-occupancy state (the journal's ``engine_state``)."""
        return self.engine._state_snapshot(self._admission_state)

    def restore_state(self, snapshot: Mapping[str, object]) -> None:
        """Adopt a :meth:`state_snapshot` taken by a previous incarnation."""
        self.engine._restore_state(self._admission_state, snapshot)

    def quiescent(self) -> bool:
        """Whether the session can be snapshotted without losing state.

        True when no requests are requeued and the engine reports its own
        state fully consistent (for a cluster: every worker's image is at
        the current case-base revision, so a recovered fleet's incremental
        versus full sync decisions match the uninterrupted run's).
        """
        return not self._requeued and self.engine._snapshot_ready()

    def finish(self) -> ServingReport:
        """Close the session and assemble the final report."""
        self.drain_requeued()
        self.metrics.wall_seconds = time.perf_counter() - self._start
        metrics_report = self.metrics.report()
        self.engine._extend_metrics(metrics_report)
        learning = self._learning_section()
        if learning is not None:
            metrics_report["learning"] = learning
        served_records = [self.records[index] for index in sorted(self.records)]
        return ServingReport(
            config=self.engine.config, served=served_records, metrics=metrics_report
        )


class ServingEngine:
    """QoS-aware micro-batching front-end over one case base.

    Parameters
    ----------
    case_base:
        The case base served.
    config:
        Serving tunables (defaults to :class:`ServingConfig`'s defaults).
    feasibility:
        Optional allocation-layer feasibility checker; when given, requests
        whose entire merged ranking is unplaceable on the platform are
        reported ``REJECTED_INFEASIBLE`` (reusing the allocation manager's
        verdict machinery).
    """

    def __init__(
        self,
        case_base: CaseBase,
        *,
        config: Optional[ServingConfig] = None,
        feasibility: Optional[FeasibilityChecker] = None,
    ) -> None:
        self.case_base = case_base
        self.config = config if config is not None else ServingConfig()
        #: The per-engine tracing + metrics hub; purely observational, so
        #: enabling it cannot perturb rankings, captures or journal bytes.
        self.observability = Observability(self.config.observability)
        self.scheduler = MicroBatchScheduler(
            max_batch=self.config.max_batch, max_wait_us=self.config.max_wait_us
        )
        self.retriever = ShardedRetriever(
            case_base,
            shard_count=self.config.shard_count,
            backend=self.config.backend,
            prefilter=self.config.prefilter,
        )
        self.retriever.observability = self.observability
        # The modelled unit must be the one that would deliver the configured
        # ranking depth, or the "exact" service times describe a different
        # design point; widen n_best like the allocation manager does.
        hardware_config = self.config.hardware_config
        if hardware_config is None:
            hardware_config = HardwareConfig(
                clock_mhz=self.config.clock_mhz, n_best=self.config.n_best
            )
        elif hardware_config.n_best < self.config.n_best:
            hardware_config = replace(hardware_config, n_best=self.config.n_best)
        self.admission = AdmissionController(
            case_base,
            clock_mhz=self.config.clock_mhz,
            hardware_config=hardware_config,
            cycle_engine=self.config.cycle_engine,
            degrade_to_software=self.config.degrade_to_software,
            feasibility=feasibility,
        )
        #: Revision-tracked screening caches (hot path: one check per request);
        #: delta windows patch only the touched types instead of rescanning.
        self._servable_types: Dict[int, Optional[str]] = {}
        self._bounded_attribute_ids: frozenset = frozenset()
        #: Per-signature screen verdicts (a verdict depends only on the
        #: signature and the revision-tracked tables, so hot-template
        #: traffic screens with one dict lookup per request).
        self._screen_verdicts: Dict[Tuple, Optional[str]] = {}
        self._screen_tracker = RevisionTrackedCache(
            case_base, rebuild=self._rebuild_screen, apply=self._apply_screen_deltas
        )
        #: Optional online-learning adapter (revise + retain between batches).
        self.learner = OnlineLearner(case_base, self.config) if self.config.learn else None
        #: Retry/backoff policy (PR 7); the base engine never requeues, so it
        #: stays ``None`` unless a fault-aware subclass installs one.
        self.retry_policy = None

    # -- request screening ---------------------------------------------------------

    @staticmethod
    def _type_failure(function_type) -> Optional[str]:
        if len(function_type) > 0:
            return None
        return (
            f"function type {function_type.type_id} has no implementation variants"
        )

    #: Screen-verdict cache entries kept (cleared wholesale beyond).
    SCREEN_VERDICT_CAPACITY = 4096

    def _rebuild_screen(self) -> None:
        """Full rescan of the screening lookup tables."""
        self._servable_types = {
            function_type.type_id: self._type_failure(function_type)
            for function_type in self.case_base.sorted_types()
        }
        self._bounded_attribute_ids = frozenset(
            bound.attribute_id for bound in self.case_base.bounds
        )
        self._screen_verdicts.clear()

    def _apply_screen_deltas(self, summary: DeltaSummary) -> bool:
        """Patch the screening tables for one delta window.

        Type servability only needs the touched types re-checked.  The
        bounded-attribute set is exact, too: with explicit bounds it moves
        only on ``BOUNDS_CHANGED``; with derived bounds it is the set of all
        attribute IDs in the case base, which grows with additions
        (union-in) and needs a rescan only when a removal might have dropped
        an attribute's last occurrence.
        """
        case_base = self.case_base
        touched = summary.touched_types
        # Verdicts key on the request signature (leading with the type ID),
        # so a window invalidates only the touched types' entries -- the
        # whole point under learn=True, where every micro-batch mutates the
        # case base; bounded-set changes below clear the memo wholesale.
        if touched:
            stale = [key for key in self._screen_verdicts if key[0] in touched]
            for key in stale:
                del self._screen_verdicts[key]
        for type_id in touched:
            if type_id in case_base:
                self._servable_types[type_id] = self._type_failure(
                    case_base.get_type(type_id)
                )
            else:
                self._servable_types.pop(type_id, None)
        if case_base.has_explicit_bounds:
            if summary.bounds_changed:
                self._bounded_attribute_ids = frozenset(
                    bound.attribute_id for bound in case_base.bounds
                )
                self._screen_verdicts.clear()
            return True
        added_ids: set = set()
        for delta in summary.deltas:
            if delta.kind is DeltaKind.ADD_IMPLEMENTATION:
                added_ids.update(delta.implementation.attributes)
            elif delta.kind is DeltaKind.ADD_TYPE:
                for implementation in delta.function_type.implementations.values():
                    added_ids.update(implementation.attributes)
            elif delta.kind is DeltaKind.REPLACE_IMPLEMENTATION:
                added_ids.update(delta.implementation.attributes)
                vanished = set(delta.previous.attributes) - set(
                    delta.implementation.attributes
                )
                if vanished:
                    self._bounded_attribute_ids = frozenset(case_base.attribute_ids())
                    self._screen_verdicts.clear()
                    return True
            else:  # REMOVE_IMPLEMENTATION / REMOVE_TYPE / BOUNDS_CHANGED
                self._bounded_attribute_ids = frozenset(case_base.attribute_ids())
                self._screen_verdicts.clear()
                return True
        if added_ids - self._bounded_attribute_ids:
            self._bounded_attribute_ids = self._bounded_attribute_ids | frozenset(
                added_ids
            )
            self._screen_verdicts.clear()
        return True

    def _screen_caches(self) -> Tuple[Dict[int, Optional[str]], frozenset]:
        """Revision-tracked lookup tables behind :meth:`_screen`."""
        self._screen_tracker.ensure_current()
        return self._servable_types, self._bounded_attribute_ids

    def _screen(self, request: FunctionRequest) -> Optional[str]:
        """Why a request cannot be dispatched at all, or ``None`` if it can.

        Verdicts are memoized per request signature: they depend only on the
        signature and the revision-tracked tables (any table change clears
        the memo), so repeated hot-template traffic screens with one dict
        lookup.
        """
        servable_types, bounded = self._screen_caches()
        key = request.signature()
        try:
            cached = self._screen_verdicts.get(key)
        except TypeError:  # unhashable value in a malformed request
            return self._screen_uncached(request, servable_types, bounded)
        if cached is not None or key in self._screen_verdicts:
            return cached
        verdict = self._screen_uncached(request, servable_types, bounded)
        if len(self._screen_verdicts) >= self.SCREEN_VERDICT_CAPACITY:
            self._screen_verdicts.clear()
        self._screen_verdicts[key] = verdict
        return verdict

    def _screen_uncached(
        self, request: FunctionRequest, servable_types, bounded
    ) -> Optional[str]:
        if request.type_id not in servable_types:
            return f"function type {request.type_id} is not in the case base"
        type_failure = servable_types[request.type_id]
        if type_failure is not None:
            return type_failure
        if len(request) == 0:
            return "request has no constraining attributes"
        if request.total_weight() <= 0:
            return "request weights sum to zero"
        for attribute_id in request.attribute_ids():
            if attribute_id not in bounded:
                return f"attribute {attribute_id} is not in the bounds table"
        try:
            # The memory-map encoder is the authoritative validator for value
            # and weight encodability (non-integer values, 16-bit overflow);
            # its request cache is keyed by signature, so admission reuses
            # this encoding instead of paying twice.  On out-of-core case
            # bases the hardware unit does not exist, but requests still
            # honor the same word model -- encode them directly.
            unit = self.admission.hardware_unit
            if unit is not None:
                unit.encoded_request_words(request)
            else:
                from ..memmap.request_list import encode_request

                encode_request(request)
        except ReproError as error:
            return str(error)
        return None

    # -- admission hooks (overridden by the cluster engine) ---------------------------

    def _admission_state(self) -> Dict[str, float]:
        """Fresh per-replay server-occupancy state for :meth:`_assess_batch`.

        The base engine models the PR 3 two-serial-server platform: one
        hardware retrieval unit and one software path, each with a virtual
        free-at time carried across batches.
        :class:`~repro.serving.cluster.ClusterServingEngine` overrides this
        pair of hooks to route across a whole device fleet instead.
        """
        self._register_worker_gauges(("hardware", "software"))
        return {"hardware_free_at_us": 0.0, "software_free_at_us": 0.0}

    def _register_worker_gauges(self, names: Sequence[str]) -> None:
        """Materialise the health gauge for every server the engine models."""
        if not self.observability.metrics_enabled:
            return
        gauge = catalog.worker_health(self.observability.registry)
        for name in names:
            gauge.labels(worker=name)

    def _assess_batch(
        self,
        state: Dict[str, float],
        entries: Sequence[TimedRequest],
        close_us: float,
    ) -> List[AdmissionDecision]:
        """Deadline-check one dispatch batch, advancing the occupancy state.

        Each admitted decision's ``queue_us + service_us`` is that server's
        occupancy end after serving it, so the maximum (or the carried
        backlog, if nothing was assigned) becomes the server's new free-at
        offset -- the admission gate sees backlog carried *across* batches
        and sustained overload is rejected even one-at-a-time.
        """
        hardware_backlog_us = max(0.0, state["hardware_free_at_us"] - close_us)
        software_backlog_us = max(0.0, state["software_free_at_us"] - close_us)
        decisions = self.admission.assess_batch(
            entries,
            close_us,
            default_deadline_us=self.config.deadline_us,
            hardware_backlog_us=hardware_backlog_us,
            software_backlog_us=software_backlog_us,
        )
        state["hardware_free_at_us"] = close_us + max(
            [hardware_backlog_us]
            + [
                decision.queue_us + decision.service_us
                for decision in decisions
                if decision.verdict is AdmissionVerdict.ADMIT_HARDWARE
            ]
        )
        state["software_free_at_us"] = close_us + max(
            [software_backlog_us]
            + [
                decision.queue_us + decision.service_us
                for decision in decisions
                if decision.verdict is AdmissionVerdict.DEGRADE_SOFTWARE
            ]
        )
        return decisions

    def _served_status(
        self, decision: AdmissionDecision
    ) -> Tuple[ServingStatus, str]:
        """``(status, worker name)`` of one admitted-and-feasible request."""
        if decision.verdict is AdmissionVerdict.DEGRADE_SOFTWARE:
            return ServingStatus.SERVED_SOFTWARE, ""
        return ServingStatus.SERVED_HARDWARE, ""

    def _state_snapshot(self, state: Dict[str, float]) -> Dict[str, object]:
        """Serialisable occupancy state for the durability journal.

        The base engine's whole cross-batch state is the two-server free-at
        dict; the cluster engine overrides this pair of hooks to also carry
        router bookkeeping and reconfiguration-port occupancy.
        """
        return {"admission": dict(state)}

    def _restore_state(
        self, state: Dict[str, float], snapshot: Mapping[str, object]
    ) -> None:
        """Adopt a :meth:`_state_snapshot` into a fresh session's state."""
        admission = snapshot.get("admission", {})
        if not isinstance(admission, Mapping):
            raise ReproError("journal engine_state has a malformed admission section")
        state.clear()
        state.update({str(key): float(value) for key, value in admission.items()})

    def _snapshot_ready(self) -> bool:
        """Whether a journal snapshot taken now loses no engine state."""
        return True

    def _extend_metrics(self, metrics_report: Dict[str, object]) -> None:
        """Hook for subclasses to add sections to the metrics report."""

    # -- replay --------------------------------------------------------------------

    def session(self) -> ServingSession:
        """Start an incremental serving session (the daemon's entry point)."""
        return ServingSession(self)

    def serve(self, trace: Sequence[TimedRequest]) -> ServingReport:
        """Replay one trace through the full serving pipeline."""
        session = ServingSession(self)
        for batch in self.scheduler.batches(list(trace)):
            session.process_batch(batch)
        return session.finish()

    def serve_requests(
        self,
        requests: Sequence[FunctionRequest],
        *,
        interarrival_us: float = 0.0,
        deadline_us: Optional[float] = None,
    ) -> ServingReport:
        """Convenience wrapper: stamp a request list and replay it."""
        return self.serve(
            trace_from_requests(
                requests, interarrival_us=interarrival_us, deadline_us=deadline_us
            )
        )
