"""The serving engine: QoS-aware micro-batched request serving, end to end.

:class:`ServingEngine` wires the serving subsystem together into the
component the ROADMAP's "heavy traffic" north star asks for -- the layer that
turns a live *stream* of function requests into batched work for the fast
primitives built in earlier PRs:

    trace -> MicroBatchScheduler -> AdmissionController (routing onto a
          DeviceFleet, priced by the cycle engines) -> RetrievalEngine
          (vectorized backend) -> MetricsCollector

Single-node serving is the fleet's one-hardware/one-software topology;
passing a :class:`~repro.platform.DeviceFleet` serves a cluster instead, with
the same scheduling, screening, retrieval and learning -- routing changes
*where* modelled service happens, never *what* is retrieved.

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
from ..core.backends import VectorizedBackend
from ..core.caching import RevisionTrackedCache
from ..core.case_base import CaseBase
from ..core.deltas import DeltaSummary, deltas_preserve_derived_bounds
from ..core.exceptions import ReproError
from ..core.learning import CaseRetainer, CaseReviser, CBRCycle, CycleReport, OutcomeRecord
from ..core.request import FunctionRequest
from ..core.retrieval import RetrievalEngine, RetrievalResult
from ..hardware.retrieval_unit import HardwareConfig
from ..memmap.image import UNSCREENED, DeltaTrackedImage, RequestPlan
from ..observability import Observability, ObservabilityConfig, catalog
from ..platform.fleet import DeviceFleet
from ..resilience import FaultInjector
from .admission import AdmissionController, AdmissionDecision, AdmissionVerdict
from .loadgen import TimedRequest
from .metrics import MetricsCollector
from .scheduler import MicroBatchScheduler


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
    #: Retrieval backend (see :class:`~repro.core.retrieval.RetrievalEngine`).
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
        bit-identity surface the ``--engine compare`` modes check.
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
    delta-propagation subsystem keeps the retrieval/cosim caches
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


def _decided(
    trace_index: int,
    entry: TimedRequest,
    batch_index: int,
    decision: AdmissionDecision,
    status: ServingStatus,
    reason: str,
    latency_us: Optional[float] = None,
    result: Optional[RetrievalResult] = None,
    worker: str = "",
) -> ServedRequest:
    """The record of one admission-assessed request."""
    # Positional: a class call with keywords packs them into a dict first,
    # which costs more than the rest of the construction at one record per
    # request.
    return ServedRequest(
        trace_index, entry.arrival_us, batch_index, status,
        decision.wait_us, decision.queue_us, decision.service_us,
        latency_us, decision.cycles, result, reason, worker,
    )


class ServingSession:
    """One serving run over an engine, fed batch by batch.

    The offline :meth:`ServingEngine.serve` replay and the network daemon
    (:mod:`repro.serving.daemon`) drive the *same* per-batch pipeline through
    this object -- screen, admission-assess (with occupancy state carried
    across batches), retrieval, feasibility audit, learning feedback,
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
        self.admission = engine.admission
        self.admission.reset()
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
        policy = self.admission.retry_policy
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
        # arrivals (they are older); they passed the screen when first
        # dispatched, so only their plans are read and they go straight to
        # admission.  Each request's plan is looked up once, here, and
        # handed to pricing and retrieval: nothing mutates the case base
        # before the learning feedback, so the batch's image and plans stay
        # current until then.
        carried = self._requeued
        self._requeued = []
        requeue_attempts = {index: attempts for index, _, attempts, _, _ in carried}
        image = engine._plan_image()
        dispatchable: List[Tuple[int, TimedRequest, Optional[RequestPlan]]] = [
            (trace_index, entry, engine._screen_plan(entry.request, image)[1])
            for trace_index, entry, _, _, _ in carried
        ]
        for trace_index, entry in batch.entries:
            failure, plan = engine._screen_plan(entry.request, image)
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
                dispatchable.append((trace_index, entry, plan))
        if dispatchable:
            plans: Optional[List[RequestPlan]] = [plan for _, _, plan in dispatchable]
            if image is None or (carried and any(plan is None for plan in plans)):
                plans = None
            decisions = self.admission.assess_batch(
                [entry for _, entry, _ in dispatchable],
                batch.close_us,
                default_deadline_us=engine.config.deadline_us,
                plans=plans,
            )
            admitted: List[Tuple[int, TimedRequest, AdmissionDecision]] = []
            admitted_plans: List[Optional[RequestPlan]] = []
            for (trace_index, entry, plan), decision in zip(dispatchable, decisions):
                if decision.verdict.admitted:
                    admitted.append((trace_index, entry, decision))
                    admitted_plans.append(plan)
                    continue
                reason = decision.reason
                if decision.verdict is AdmissionVerdict.REQUEUE:
                    attempts = requeue_attempts.get(trace_index, 0) + 1
                    if attempts < self._requeue_limit:
                        self._requeued.append(
                            (trace_index, entry, attempts, batch.index, batch.close_us)
                        )
                        continue
                    reason = (
                        f"{reason} (requeue budget of "
                        f"{self._requeue_limit} attempts exhausted)"
                    )
                produced[trace_index] = _decided(
                    trace_index, entry, batch.index, decision,
                    ServingStatus.REJECTED_DEADLINE, reason,
                )
            if admitted:
                results = engine._retrieve(
                    [entry.request for _, entry, _ in admitted],
                    admitted_plans if plans is not None else None,
                )
                for (trace_index, entry, decision), result in zip(admitted, results):
                    infeasible = self.admission.feasibility_failure(result)
                    if infeasible is not None:
                        produced[trace_index] = _decided(
                            trace_index, entry, batch.index, decision,
                            ServingStatus.REJECTED_INFEASIBLE, infeasible,
                            result=result,
                        )
                        continue
                    produced[trace_index] = _decided(
                        trace_index, entry, batch.index, decision,
                        ServingStatus.SERVED_SOFTWARE
                        if decision.verdict is AdmissionVerdict.DEGRADE_SOFTWARE
                        else ServingStatus.SERVED_HARDWARE,
                        decision.reason,
                        latency_us=decision.latency_us,
                        result=result,
                        # Single-node records name no worker.
                        worker=decision.worker if self.admission.cluster else "",
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
        records = self.records
        for record in batch_records:
            records[record.index] = record
        # One call each per batch: the per-request cost is the observations.
        self.metrics.observe_records(batch_records)
        observability.record_requests(batch_records)
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

        Deliberately skips the ``cluster`` section: building it *drains* the
        fleet (a mutating sync), which must only happen when the session
        finishes.
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
        return self.admission.state_snapshot()

    def restore_state(self, snapshot: Mapping[str, object]) -> None:
        """Adopt a :meth:`state_snapshot` taken by a previous incarnation."""
        self.admission.restore_state(snapshot)

    def quiescent(self) -> bool:
        """Whether the session can be snapshotted without losing state.

        True when no requests are requeued and the router reports its own
        state fully consistent (for a cluster: every worker's image is at
        the current case-base revision, so a recovered fleet's incremental
        versus full sync decisions match the uninterrupted run's).
        """
        return not self._requeued and self.admission.snapshot_ready()

    def finish(self) -> ServingReport:
        """Close the session and assemble the final report."""
        self.drain_requeued()
        self.metrics.wall_seconds = time.perf_counter() - self._start
        metrics_report = self.metrics.report()
        if self.admission.cluster:
            metrics_report["cluster"] = self.admission.fleet_report(
                metrics_report["served"]
            )
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
    fleet:
        Optional device fleet (built over ``case_base``) to serve as a
        cluster: records name their worker, reports gain a ``cluster``
        section, and device images are synced before every batch.  ``None``
        serves the single-node topology.
    fault_injector:
        Optional seeded :class:`~repro.resilience.FaultInjector` (worker
        health, quarantine routing and the ``requeue`` rung).
    """

    def __init__(
        self,
        case_base: CaseBase,
        *,
        config: Optional[ServingConfig] = None,
        feasibility: Optional[FeasibilityChecker] = None,
        fleet: Optional[DeviceFleet] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.case_base = case_base
        self.config = config if config is not None else ServingConfig()
        #: The per-engine tracing + metrics hub; purely observational, so
        #: enabling it cannot perturb rankings, captures or journal bytes.
        self.observability = Observability(self.config.observability)
        self.scheduler = MicroBatchScheduler(
            max_batch=self.config.max_batch, max_wait_us=self.config.max_wait_us
        )
        #: One retrieval engine over the whole case base.  It pins the
        #: (possibly derived) bounds table it was built with, so a delta
        #: window that may move that table rebuilds it; the engine's backend
        #: absorbs every other window.
        self._retriever_tracker = RevisionTrackedCache(
            case_base, rebuild=self._rebuild_retriever, apply=self._absorb_window
        )
        self._rebuild_retriever()
        self._retriever_tracker.mark_current()
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
            fleet=fleet,
            clock_mhz=self.config.clock_mhz,
            hardware_config=hardware_config,
            cycle_engine=self.config.cycle_engine,
            degrade_to_software=self.config.degrade_to_software,
            feasibility=feasibility,
            fault_injector=fault_injector,
        )
        self.admission.observability = self.observability
        self.fleet = self.admission.fleet
        #: Optional online-learning adapter (revise + retain between batches).
        self.learner = OnlineLearner(case_base, self.config) if self.config.learn else None

    # -- retrieval -----------------------------------------------------------------

    def _rebuild_retriever(self) -> None:
        self.retriever = RetrievalEngine(
            self.case_base, backend=self.config.backend, prefilter=self.config.prefilter
        )
        #: Only the vectorized backend keeps its rankings in the plans.
        self._memoise_rankings = self.retriever.backend_name == VectorizedBackend.name
        #: Backend pre-filter counts already in the registry (new ones start at 0).
        self._prefilter_emitted = (0, 0, 0)

    def _absorb_window(self, summary: DeltaSummary) -> bool:
        """Keep the retriever across a window that cannot move its bounds."""
        return not summary.bounds_changed and (
            self.case_base.has_explicit_bounds
            or deltas_preserve_derived_bounds(summary.deltas, self.retriever.bounds)
        )

    def _count_prefilter(self) -> None:
        """Fold the backend's new pre-filter counts into the registry."""
        if self.config.prefilter == "off" or not self.observability.metrics_enabled:
            return
        backend = self.retriever.backend
        totals = tuple(
            getattr(backend, f"prefilter_{name}", 0)
            for name in ("requests", "rows_pruned", "rows_total")
        )
        requests, pruned, rows = (
            total - emitted for total, emitted in zip(totals, self._prefilter_emitted)
        )
        self._prefilter_emitted = totals
        registry = self.observability.registry
        catalog.prefilter_requests(registry).inc(requests)
        for outcome, count in (("pruned", pruned), ("evaluated", rows - pruned)):
            catalog.prefilter_rows(registry).labels(outcome=outcome).inc(count)

    def _retrieve(
        self,
        requests: Sequence[FunctionRequest],
        plans: Optional[Sequence[RequestPlan]],
    ) -> List[RetrievalResult]:
        """The configured ranking of every request, from its plan when it
        holds one.

        The vectorized backend's result is a pure function of the exact
        request, ``n``, ``threshold``, the bounds table and the requested
        type's implementations; the plan's trimming rule covers the type and
        the key covers the rest, so a repeated request skips the kernel and
        only the misses are scored (and stored).  The golden ``naive`` path,
        and a batch without plans, always score.
        """
        config = self.config
        retriever = self.retriever
        if plans is None or not self._memoise_rankings:
            results = retriever.retrieve_batch(
                requests, n=config.n_best, threshold=config.threshold
            )
            self._count_prefilter()
            return results
        key = (config.n_best, config.threshold, retriever.bounds)
        found: List[Optional[RetrievalResult]] = [plan.rankings.get(key) for plan in plans]
        misses = [index for index, result in enumerate(found) if result is None]
        if misses:
            # Requests sharing a plan within the batch are scored once.
            scoring: Dict[int, int] = {}
            for index in misses:
                scoring.setdefault(id(plans[index]), index)
            scored = retriever.retrieve_batch(
                [requests[index] for index in scoring.values()],
                n=config.n_best,
                threshold=config.threshold,
            )
            self._count_prefilter()
            for index, result in zip(scoring.values(), scored):
                plans[index].rankings[key] = result
            for index in misses:
                found[index] = plans[index].rankings[key]
        return found  # type: ignore[return-value]

    # -- request screening ---------------------------------------------------------

    def _plan_image(self) -> Optional[DeltaTrackedImage]:
        """The batch's current encoded image (the retriever brought current
        too), or ``None`` when the case base cannot encode."""
        self._retriever_tracker.ensure_current()
        unit = self.admission.hardware_unit
        if unit is None:
            return None
        try:
            return unit.pricing_image()
        except ReproError:
            return None

    def _screen_plan(
        self, request: FunctionRequest, image: Optional[DeltaTrackedImage]
    ) -> Tuple[Optional[str], Optional[RequestPlan]]:
        """Why a request cannot be dispatched at all (``None`` if it can),
        and its plan on the batch's ``image``.

        Reads the case base for the requested type and the retriever's
        bounds table for the attributes.  The verdict is kept in the
        request's plan, whose invalidation rule covers everything it reads
        (a window drops the plans of the types it touches, a bounds change
        rebuilds the image), so repeated hot-template traffic screens with
        one lookup, and a first sight looks its plan up once: the plan holds
        the request's encoding, so only the checks ahead of the encode step
        run.  Without a plan -- the case base or the request cannot encode
        -- it screens uncached.
        """
        plan = None
        if image is not None:
            try:
                plan = image.plan(request)
            except ReproError:
                pass
        if plan is None:
            return self._screen_uncached(request), None
        verdict = plan.verdict
        if verdict is UNSCREENED:
            verdict = plan.verdict = self._screen_structure(request)
        return verdict, plan  # type: ignore[return-value]

    def _screen(self, request: FunctionRequest) -> Optional[str]:
        """Why one request cannot be dispatched at all, or ``None`` if it can."""
        return self._screen_plan(request, self._plan_image())[0]

    def _screen_structure(self, request: FunctionRequest) -> Optional[str]:
        """Every screen check but the encode step, in screening order."""
        case_base = self.case_base
        if request.type_id not in case_base:
            return f"function type {request.type_id} is not in the case base"
        function_type = case_base.get_type(request.type_id)
        if len(function_type) == 0:
            return f"function type {function_type.type_id} has no implementation variants"
        if len(request) == 0:
            return "request has no constraining attributes"
        if request.total_weight() <= 0:
            return "request weights sum to zero"
        bounds = self.retriever.bounds
        for attribute_id in request.attribute_ids():
            if attribute_id not in bounds:
                return f"attribute {attribute_id} is not in the bounds table"
        return None

    def _screen_uncached(self, request: FunctionRequest) -> Optional[str]:
        failure = self._screen_structure(request)
        if failure is not None:
            return failure
        try:
            # The memory-map encoder is the authoritative validator for value
            # and weight encodability (non-integer values, 16-bit overflow).
            # On out-of-core case bases the hardware unit does not exist, but
            # requests still honor the same word model -- encode them
            # directly.
            unit = self.admission.hardware_unit
            if unit is not None:
                unit.encoded_request_words(request)
            else:
                from ..memmap.request_list import encode_request

                encode_request(request)
        except ReproError as error:
            return str(error)
        return None

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
