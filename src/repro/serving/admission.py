"""Cycle-priced admission: the one gate routing requests onto a device fleet.

The paper's retrieval unit answers requests under real-time constraints, and
PR 2's cycle engines give *exact* per-request cycle counts cheaply.  The
admission controller turns the two into a QoS gate evaluated at batch
dispatch over a :class:`~repro.platform.fleet.DeviceFleet` of serial servers
(service time = ``cycles / worker clock``, no estimation).  In arrival order,
a request is **admitted** to the earliest-finishing hardware worker if wait +
that worker's occupancy + its service time meets the deadline; otherwise it
**degrades** to the earliest-finishing software worker if that still meets
it; otherwise it is **rejected**.  A deadline of 0 rejects everything; no
deadline admits everything to hardware.

Without an explicit fleet the controller serves the paper's single node
(:meth:`DeviceFleet.single_node <repro.platform.fleet.DeviceFleet.single_node>`:
workers ``hardware`` and ``software`` at equal clock, free image adoption).
A larger fleet adds reconfiguration-port occupancy and outages
(:meth:`RetrievalWorker.available_from
<repro.platform.fleet.RetrievalWorker.available_from>`), syncs case-base
deltas to the device images before every batch and, under fault injection,
tracks worker health with a ``requeue`` rung.  A case base past the models'
16-bit CB-MEM addressing leaves its tier unavailable (software becomes
primary; with neither model, requests are served unpriced against the wait
budget).  After retrieval, :meth:`AdmissionController.feasibility_failure`
screens the merged ranking with the allocation layer's
:class:`~repro.allocation.feasibility.FeasibilityChecker`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..allocation.feasibility import FeasibilityChecker
from ..core.case_base import CaseBase
from ..core.exceptions import EncodingError, ReproError
from ..core.retrieval import RetrievalResult
from ..hardware.retrieval_unit import HardwareConfig, HardwareRetrievalUnit
from ..observability import catalog
from ..platform.fleet import HARDWARE, DeviceFleet, RetrievalWorker, WorkerSyncEvent
from ..resilience import FaultInjector, RetryPolicy
from ..software.isa import CostModel, microblaze_cost_model
from ..software.retrieval_sw import SoftwareRetrievalUnit
from .loadgen import TimedRequest


class AdmissionVerdict(enum.Enum):
    """Outcome of the deadline check for one request."""

    ADMIT_HARDWARE = "admit_hardware"
    DEGRADE_SOFTWARE = "degrade_software"
    REJECT_DEADLINE = "reject_deadline"
    #: Transient-fault rung of the ladder (PR 7): every candidate worker is
    #: quarantined right now, but the deadline still affords a later batch,
    #: so the session carries the request into the next dispatch instead of
    #: rejecting it.
    REQUEUE = "requeue"

    @property
    def admitted(self) -> bool:
        """Whether the request proceeds to retrieval dispatch *this batch*."""
        return self in (
            AdmissionVerdict.ADMIT_HARDWARE,
            AdmissionVerdict.DEGRADE_SOFTWARE,
        )


@dataclass
class AdmissionDecision:
    """Deadline assessment of one request at batch-dispatch time.

    Not frozen: a frozen dataclass pays one ``object.__setattr__`` per field
    on construction, which shows at one decision per request in large
    micro-batches.
    """

    verdict: AdmissionVerdict
    #: Queueing delay from arrival to batch dispatch.
    wait_us: float
    #: Occupancy of the assigned worker when this request reached it (the
    #: best candidate's, for rejected requests; 0 when unpriced).
    queue_us: float
    #: Modelled service time on the assigned worker (hardware time for
    #: rejected requests, for diagnostics).
    service_us: float
    #: Exact modelled retrieval cycles on the assigned worker.
    cycles: int
    #: The deadline budget applied (``None`` = unconstrained).
    deadline_us: Optional[float]
    reason: str = ""
    #: Fleet worker the request was assigned to (empty unless assigned).
    worker: str = ""
    worker_kind: str = ""

    @property
    def latency_us(self) -> float:
        """Modelled arrival-to-completion latency (wait + queue + service)."""
        return self.wait_us + self.queue_us + self.service_us


#: Worker health states (PR 7's graceful-degradation ladder).
HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"


class WorkerHealth:
    """Per-worker health tracking driven by fault observations.

    The lifecycle is ``healthy -> suspect -> quarantined -> (probe) ->
    healthy``: the first failure observation marks a worker *suspect* (still
    routed, being watched), ``quarantine_after`` cumulative failures
    quarantine it (routed around entirely), and after ``probe_interval_us``
    of virtual time one dispatch may probe it -- a successful observation
    re-admits the worker, a failed one re-arms the quarantine window.  All
    observations are pure functions of virtual time (injected fault windows,
    failed sync events), so health evolution is identical in live serving,
    capture replay and journal recovery.
    """

    def __init__(
        self,
        names: Sequence[str],
        *,
        quarantine_after: int = 2,
        probe_interval_us: float = 5_000.0,
    ) -> None:
        if quarantine_after < 1:
            raise ReproError("quarantine_after must be at least 1")
        if probe_interval_us < 0:
            raise ReproError("probe_interval_us must be non-negative")
        self.quarantine_after = quarantine_after
        self.probe_interval_us = probe_interval_us
        self.reset(names)

    def reset(self, names: Sequence[str]) -> None:
        """Every worker healthy, failure counters cleared."""
        self.states: Dict[str, str] = {name: HEALTHY for name in names}
        self.failures: Dict[str, int] = {name: 0 for name in names}
        self.release_at_us: Dict[str, float] = {name: 0.0 for name in names}

    def observe_failure(self, name: str, now_us: float) -> None:
        """Record one fault observation (down window, failed image stream)."""
        self.failures[name] += 1
        if self.failures[name] >= self.quarantine_after:
            self.states[name] = QUARANTINED
            self.release_at_us[name] = now_us + self.probe_interval_us
        else:
            self.states[name] = SUSPECT

    def observe_recovery(self, name: str, now_us: float) -> None:
        """Record a healthy observation; re-admits after a due probe."""
        if self.states[name] == QUARANTINED and now_us < self.release_at_us[name]:
            return  # still serving out the quarantine window; no probe yet
        self.states[name] = HEALTHY
        self.failures[name] = 0

    def routable(self, name: str, now_us: float) -> bool:
        """Whether the router may assign work to ``name`` at ``now_us``."""
        return self.states[name] != QUARANTINED or now_us >= self.release_at_us[name]

    def counts(self) -> Dict[str, int]:
        """``{state: worker count}`` for the metrics report."""
        tally = {HEALTHY: 0, SUSPECT: 0, QUARANTINED: 0}
        for state in self.states.values():
            tally[state] += 1
        return tally


def _typed(mapping: object, cast) -> Dict[str, object]:
    """``{str(name): cast(value)}`` of one snapshot mapping."""
    return {str(name): cast(value) for name, value in dict(mapping).items()}


def _missed(deadline_us: float, wait_us: float) -> str:
    """The reason string of a deadline rejection."""
    return (
        f"deadline budget of {deadline_us:.1f} us cannot be met "
        f"(waited {wait_us:.1f} us)"
    )


class AdmissionController:
    """Batch-time deadline gate routing onto a fleet of modelled servers.

    Parameters
    ----------
    case_base:
        The case base served (shared with the retrieval engine).
    fleet:
        The device fleet answering the traffic (must be built over
        ``case_base``).  ``None`` serves the single-node topology
        (:meth:`DeviceFleet.single_node
        <repro.platform.fleet.DeviceFleet.single_node>`); only an explicit
        fleet is a *cluster*, whose decisions name their workers and whose
        device images are synced before every batch.
    clock_mhz:
        Clock of the modelled servers (the paper compares at equal clock).
    hardware_config:
        Optional explicit hardware-unit configuration; defaults to the
        baseline unit at ``clock_mhz``.  When given, its ``clock_mhz`` takes
        precedence and the default software cost model follows it, keeping
        the two tiers at equal clock.
    cycle_engine:
        Cycle-engine selection for the service-time predictions
        (``"auto"``/``"vectorized"``/``"stepwise"``) -- the vectorized engine
        makes per-batch prediction cheap.
    degrade_to_software:
        Whether deadline misses on the hardware tier may fall back to the
        software tier instead of being rejected outright.
    software_cost_model:
        Cost model of the software path (defaults to the MicroBlaze model at
        ``clock_mhz``).
    feasibility:
        Optional allocation-layer feasibility checker for post-retrieval
        candidate screening (see :meth:`feasibility_failure`).
    fault_injector:
        Optional seeded :class:`~repro.resilience.FaultInjector`; enables
        worker health tracking, quarantine routing and the ``requeue`` rung.
    retry_policy:
        Backoff budget for image-stream retries and request requeues
        (defaults to :class:`~repro.resilience.RetryPolicy` when a fault
        injector is present).
    """

    def __init__(
        self,
        case_base: CaseBase,
        *,
        fleet: Optional[DeviceFleet] = None,
        clock_mhz: float = 66.0,
        hardware_config: Optional[HardwareConfig] = None,
        cycle_engine: str = "auto",
        degrade_to_software: bool = True,
        software_cost_model: Optional[CostModel] = None,
        feasibility: Optional[FeasibilityChecker] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if clock_mhz <= 0:
            raise ReproError(f"clock_mhz must be positive, got {clock_mhz}")
        if cycle_engine not in ("auto", "stepwise", "vectorized"):
            raise ReproError(
                f"unknown cycle engine {cycle_engine!r}; "
                f"expected 'auto', 'stepwise' or 'vectorized'"
            )
        if fleet is not None and fleet.case_base is not case_base:
            raise ReproError(
                "the fleet must be built over the served case base "
                "(device images would otherwise track a different tree)"
            )
        self.case_base = case_base
        self.cycle_engine = cycle_engine
        self.degrade_to_software = degrade_to_software
        self.feasibility = feasibility
        config = (
            hardware_config
            if hardware_config is not None
            else HardwareConfig(clock_mhz=clock_mhz)
        )
        # Both tiers run at the hardware unit's effective clock (an explicit
        # hardware_config wins over clock_mhz), so the admit/degrade trade-off
        # stays the paper's equal-clock comparison.  An explicit
        # software_cost_model overrides, clock included.
        self.clock_mhz = config.clock_mhz
        #: ``None`` when the case base cannot be encoded into the modelled
        #: CB-MEM at all (the implementation tree overflows the hardware's
        #: 16-bit word addressing -- out-of-core scale).  The hardware tier
        #: is then unavailable and the software tier serves everything.
        self.hardware_unit: Optional[HardwareRetrievalUnit] = None
        self.hardware_unavailable_reason: Optional[str] = None
        try:
            self.hardware_unit = HardwareRetrievalUnit(case_base, config=config)
        except EncodingError as error:
            self.hardware_unavailable_reason = (
                f"case base does not fit the hardware retrieval unit ({error})"
            )
        self._software_cost_model = (
            software_cost_model
            if software_cost_model is not None
            else microblaze_cost_model(config.clock_mhz)
        )
        self._software_unit: Optional[SoftwareRetrievalUnit] = None
        self.software_unavailable_reason: Optional[str] = None

        self.cluster = fleet is not None
        if fleet is None:
            fleet = DeviceFleet.single_node(
                case_base,
                hardware_clock_mhz=self.clock_mhz,
                software_clock_mhz=self._software_cost_model.clock_mhz,
            )
        if fleet.image_words is None:
            unit = self.hardware_unit
            fleet.image_words = unit.image_word_count if unit is not None else lambda: 0
        self.fleet = fleet
        self.fault_injector = fault_injector
        if retry_policy is None and fault_injector is not None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        if fault_injector is not None:
            fleet.apply_faults(fault_injector, retry_policy)
        #: The fleet composition is fixed, so the tiers are computed once.  A
        #: tier whose pricing model cannot encode the case base is empty.
        self._hardware_tier: List[RetrievalWorker] = (
            fleet.hardware_workers if self.hardware_unit is not None else []
        )
        self._software_tier: List[RetrievalWorker] = fleet.software_workers
        #: Why software serves as the primary tier, when a configured
        #: hardware tier cannot be priced.
        self._software_primary_reason = (
            self.hardware_unavailable_reason or ""
            if fleet.hardware_workers
            else ""
        )
        #: Health tracking only exists under fault injection: the healthy
        #: fleet keeps its exact routing arithmetic.
        self.health: Optional[WorkerHealth] = (
            WorkerHealth([worker.name for worker in fleet.workers])
            if fault_injector is not None
            else None
        )
        #: Optional :class:`~repro.observability.Observability` hub installed
        #: by the owning engine (health gauge, requeue counters, sync spans).
        self.observability = None
        self.reset()

    def reset(self) -> None:
        """Clear per-replay occupancy, accounting and fleet timing."""
        self.fleet.reset_timing()
        names = [worker.name for worker in self.fleet.workers]
        #: Virtual time each worker's queued retrieval work drains.
        self.free_at_us: Dict[str, float] = {name: 0.0 for name in names}
        self.assigned_counts: Dict[str, int] = {name: 0 for name in names}
        self.busy_us: Dict[str, float] = {name: 0.0 for name in names}
        self.first_dispatch_us: Optional[float] = None
        self.last_completion_us = 0.0
        self.requeue_count = 0
        self.sync_events: List[WorkerSyncEvent] = []
        #: Health states last published to the metrics gauge (transition
        #: detection; observation only, never consulted for routing).
        self._published_states: Dict[str, str] = {}
        if self.health is not None:
            self.health.reset(names)
        observability = self.observability
        if observability is not None and observability.metrics_enabled:
            gauge = catalog.worker_health(observability.registry)
            for name in names:
                gauge.labels(worker=name)

    # -- the pricing models ----------------------------------------------------------

    def _software(self) -> SoftwareRetrievalUnit:
        """The lazily built software-path model (only needed on hw misses)."""
        if self._software_unit is None:
            if self.software_unavailable_reason is not None:
                raise ReproError(self.software_unavailable_reason)
            try:
                self._software_unit = SoftwareRetrievalUnit(
                    self.case_base, cost_model=self._software_cost_model
                )
            except EncodingError as error:
                # The soft-core model walks the same CB-MEM word image as the
                # hardware; past 16-bit addressing neither model exists.
                self.software_unavailable_reason = (
                    f"case base does not fit the software model's CB-MEM ({error})"
                )
                self._software_tier = []
                raise ReproError(self.software_unavailable_reason) from error
        return self._software_unit

    def _software_times_or_none(
        self, requests: Sequence
    ) -> Optional[List[tuple]]:
        """Software timings, or ``None`` when the model cannot encode."""
        try:
            return self.software_times_us(requests)
        except ReproError:
            if self.software_unavailable_reason is None:
                raise
            return None

    def _times_us(self, unit, clock_mhz: float, requests: Sequence) -> List[tuple]:
        """Exact ``(cycles, service_us)`` per request from the cycle engines'
        prediction fast path: admission needs service times, not rankings, so
        no result objects are assembled."""
        return [
            (cycles, cycles / clock_mhz)
            for cycles in unit.predict_cycles(list(requests), engine=self.cycle_engine)
        ]

    def hardware_times_us(self, requests: Sequence) -> List[tuple]:
        """Exact ``(cycles, service_us)`` per request on the hardware unit."""
        unit = self.hardware_unit
        if unit is None:
            raise ReproError(self.hardware_unavailable_reason or "no hardware unit")
        return self._times_us(unit, unit.config.clock_mhz, requests)

    def software_times_us(self, requests: Sequence) -> List[tuple]:
        """Exact ``(cycles, service_us)`` per request on the software path."""
        unit = self._software()
        return self._times_us(unit, unit.cost_model.clock_mhz, requests)

    # -- fleet images and worker health ------------------------------------------------

    def _sync(self, now_us: float) -> None:
        """Propagate pending case-base deltas to the device images.

        An exhausted image-stream retry budget counts against the worker's
        health; its stale revision is retried at the next sync.
        """
        events = self.fleet.sync(now_us)
        if self.health is not None:
            for event in events:
                if event.status != "applied":
                    self.health.observe_failure(event.worker, now_us)
                    self._publish_health()
        self._record_sync(events)

    def _record_sync(self, events: List[WorkerSyncEvent]) -> None:
        """Log, count and span the fleet's image-stream events."""
        self.sync_events.extend(events)
        observability = self.observability
        if observability is None or not events:
            return
        if observability.metrics_enabled:
            registry = observability.registry
            totals = catalog.fleet_sync_total(registry)
            for event in events:
                totals.labels(
                    mode="incremental" if event.incremental else "full",
                    status=event.status,
                ).inc()
                catalog.fleet_sync_bytes(registry).inc(event.bytes_streamed)
                if event.attempts > 1:
                    catalog.fleet_sync_retries(registry).inc(event.attempts - 1)
        if observability.trace_enabled:
            for event in events:
                observability.batch_span(
                    "sync",
                    start_us=event.start_us,
                    end_us=event.start_us + event.duration_us,
                    worker=event.worker,
                    mode="incremental" if event.incremental else "full",
                    status=event.status,
                    bytes=event.bytes_streamed,
                    revision=event.revision,
                    attempts=event.attempts,
                )

    def _observe_health(self, now_us: float) -> None:
        """Fold the injector's fault windows into the health tracker."""
        assert self.health is not None and self.fault_injector is not None
        for worker in self.fleet.workers:
            if self.fault_injector.worker_down(worker.name, now_us):
                self.health.observe_failure(worker.name, now_us)
            else:
                self.health.observe_recovery(worker.name, now_us)
        self._publish_health()

    def _publish_health(self) -> None:
        """Mirror health-state transitions into the gauge and span stream."""
        observability = self.observability
        if observability is None or self.health is None:
            return
        for name, state in self.health.states.items():
            previous = self._published_states.get(name)
            if previous == state:
                continue
            self._published_states[name] = state
            if observability.metrics_enabled:
                registry = observability.registry
                catalog.worker_health(registry).labels(worker=name).set(
                    catalog.HEALTH_LEVELS.get(state, 0.0)
                )
                if previous is not None:
                    catalog.health_transitions(registry).labels(
                        worker=name, to=state
                    ).inc()
            if previous is not None:
                observability.batch_span(
                    "health-transition",
                    worker=name,
                    from_state=previous,
                    to_state=state,
                )

    def _routable(
        self, workers: List[RetrievalWorker], now_us: float
    ) -> List[RetrievalWorker]:
        """The tier minus quarantined workers (probes re-admit them)."""
        if self.health is None:
            return workers
        return [
            worker for worker in workers
            if self.health.routable(worker.name, now_us)
        ]

    def makespan_us(self) -> float:
        """Modelled span from the first dispatch to the last completion.

        The capacity figure N devices improve: dispatch-to-drain time of the
        replayed work (0 when nothing was assigned).  Trace-position offsets
        and batching waits are excluded -- they are identical for every
        fleet size.
        """
        if self.first_dispatch_us is None:
            return 0.0
        return max(0.0, self.last_completion_us - self.first_dispatch_us)

    # -- candidate evaluation --------------------------------------------------------

    def _best_candidate(
        self,
        workers: List[RetrievalWorker],
        cycles: int,
        close_us: float,
        backlog_us: Dict[str, float],
    ) -> Tuple[RetrievalWorker, float, float]:
        """``(worker, queue_us, service_us)`` minimising finish time.

        ``queue_us`` is the worker's backlog relative to ``close_us``; a port
        or outage delay is added only when it actually moves the start, so
        an undisturbed worker keeps the exact two-server arithmetic.  Ties
        break on registration order, keeping routing deterministic.
        """
        best: Tuple[RetrievalWorker, float, float] = (workers[0], 0.0, 0.0)
        best_finish = float("inf")
        injector = self.fault_injector
        for worker in workers:
            service = cycles / worker.clock_mhz
            if injector is not None:
                # Slow-device faults stretch the modelled service time --
                # a capacity effect only; rankings are unaffected.
                service *= injector.service_factor(worker.name, close_us)
            queue = backlog_us[worker.name]
            start = close_us + queue
            # Passing the service time keeps work from overlapping an outage:
            # a job that would still be running when the device goes down is
            # started after the window instead.
            available = worker.available_from(start, service)
            if available != start:
                queue += available - start
            finish = queue + service
            if finish < best_finish:
                best, best_finish = (worker, queue, service), finish
        return best

    # -- the deadline gate ---------------------------------------------------------

    def assess_batch(
        self,
        entries: Sequence[TimedRequest],
        close_us: float,
        *,
        default_deadline_us: Optional[float] = None,
    ) -> List[AdmissionDecision]:
        """Deadline-check and route one dispatch batch; decision ``i`` covers
        entry ``i``.

        ``close_us`` is the batch's dispatch time (requests have waited
        ``close_us - arrival_us``); each entry's own ``deadline_us`` takes
        precedence over ``default_deadline_us``.  Work still queued from
        earlier batches seeds every worker's occupancy (each worker's
        free-at time is carried across the replay, so saturation spanning
        batches is visible to the gate and the modelled latencies stay
        physical -- one request at a time per worker).
        """
        entries = list(entries)
        if not entries:
            return []
        if self.cluster:
            self._sync(close_us)
        if self.health is not None:
            self._observe_health(close_us)
        requests = [entry.request for entry in entries]
        all_hardware = self._hardware_tier
        hardware_workers = self._routable(all_hardware, close_us)
        hardware_times = (
            self.hardware_times_us(requests) if hardware_workers else None
        )
        #: Software is priced up front only as the primary tier; behind
        #: hardware it is priced on the first miss, so an all-hardware batch
        #: never pays for the software model while a miss still amortises
        #: one vectorized sweep over the whole batch.
        software_times: Optional[List[tuple]] = None
        if not all_hardware and self._software_tier:
            software_times = self._software_times_or_none(requests)
        all_software = self._software_tier
        if not all_hardware and not all_software:
            return self._assess_unpriced(entries, close_us, default_deadline_us)
        software_workers = self._routable(all_software, close_us)
        #: Software is the fallback tier behind hardware, or the primary tier
        #: when there is no priced hardware tier (no degrade gating then).
        #: The gate looks at the *configured* tiers, not the quarantine-
        #: filtered ones: ``degrade_to_software=False`` must stay honoured
        #: even while every hardware worker is quarantined.
        software_gate = self.degrade_to_software or not all_hardware
        #: A tier that exists but is entirely quarantined blocks requests the
        #: healthy fleet would have served -- the ``REQUEUE`` rung below.
        quarantine_blocked = (bool(all_hardware) and not hardware_workers) or (
            bool(all_software) and software_gate and not software_workers
        )
        software_probed = software_times is not None
        backlog_us = {
            name: max(0.0, free_at - close_us)
            for name, free_at in self.free_at_us.items()
        }
        decisions: List[AdmissionDecision] = []
        for index, entry in enumerate(entries):
            wait_us = max(0.0, close_us - entry.arrival_us)
            deadline = (
                entry.deadline_us
                if entry.deadline_us is not None
                else default_deadline_us
            )
            chosen: Optional[Tuple[RetrievalWorker, float, float]] = None
            reason = self._software_primary_reason
            if hardware_workers:
                cycles = hardware_times[index][0]
                candidate = self._best_candidate(
                    hardware_workers, cycles, close_us, backlog_us
                )
                if deadline is None or wait_us + candidate[1] + candidate[2] <= deadline:
                    chosen, reason = candidate, ""
                else:
                    reason = "hardware queue misses the deadline; software path fits"
            if chosen is None and software_gate and software_workers:
                if not software_probed:
                    software_probed = True
                    software_times = self._software_times_or_none(requests)
                if software_times is not None:
                    cycles = software_times[index][0]
                    candidate = self._best_candidate(
                        software_workers, cycles, close_us, backlog_us
                    )
                    if (
                        deadline is None
                        or wait_us + candidate[1] + candidate[2] <= deadline
                    ):
                        chosen = candidate
            if chosen is not None:
                worker, queue_us, service_us = chosen
                name = worker.name
                backlog = backlog_us[name] = queue_us + service_us
                self.assigned_counts[name] += 1
                self.busy_us[name] += service_us
                if close_us + backlog > self.last_completion_us:
                    self.last_completion_us = close_us + backlog
                decisions.append(AdmissionDecision(
                    verdict=(
                        AdmissionVerdict.ADMIT_HARDWARE
                        if worker.kind == HARDWARE
                        else AdmissionVerdict.DEGRADE_SOFTWARE
                    ),
                    wait_us=wait_us,
                    queue_us=queue_us,
                    service_us=service_us,
                    cycles=cycles,
                    deadline_us=deadline,
                    reason=reason,
                    worker=name,
                    worker_kind=worker.kind,
                ))
                if self.first_dispatch_us is None:
                    self.first_dispatch_us = close_us
                continue
            #: The transient-fault rung: every candidate the healthy fleet
            #: would have tried is quarantined, and the deadline still
            #: affords a later batch -- carry the request forward instead of
            #: rejecting it.  The session bounds the carry by the retry
            #: policy's attempt budget.
            if (
                quarantine_blocked
                and self.retry_policy is not None
                and (
                    deadline is None
                    or wait_us + self.retry_policy.base_delay_us <= deadline
                )
            ):
                self.requeue_count += 1
                if self.observability is not None:
                    if self.observability.metrics_enabled:
                        catalog.requeues_total(self.observability.registry).inc()
                    self.observability.batch_span(
                        "requeue", wait_us=wait_us, deadline_us=deadline
                    )
                decisions.append(AdmissionDecision(
                    verdict=AdmissionVerdict.REQUEUE,
                    wait_us=wait_us,
                    queue_us=0.0,
                    service_us=0.0,
                    cycles=0,
                    deadline_us=deadline,
                    reason=(
                        "every routable worker is quarantined; "
                        "requeued for a later dispatch"
                    ),
                ))
                continue
            #: Rejection diagnostics: the primary tier's best candidate at
            #: assessment time (falling back to the unfiltered tier when
            #: quarantine emptied it).
            if all_hardware:
                if hardware_times is None:
                    hardware_times = self.hardware_times_us(requests)
                diag_cycles = hardware_times[index][0]
                diag_tier = hardware_workers or all_hardware
            else:
                if software_times is None:
                    software_times = self.software_times_us(requests)
                diag_cycles = software_times[index][0]
                diag_tier = software_workers or all_software
            _, queue_us, service_us = self._best_candidate(
                diag_tier, diag_cycles, close_us, backlog_us
            )
            if deadline is not None:
                reject_reason = _missed(deadline, wait_us)
                if quarantine_blocked:
                    reject_reason += " with the remaining healthy workers"
            else:
                reject_reason = (
                    "every fleet worker is quarantined and no retry "
                    "budget is configured"
                )
            decisions.append(AdmissionDecision(
                verdict=AdmissionVerdict.REJECT_DEADLINE,
                wait_us=wait_us,
                queue_us=queue_us,
                service_us=service_us,
                cycles=diag_cycles,
                deadline_us=deadline,
                reason=reject_reason,
            ))
        for name, backlog in backlog_us.items():
            self.free_at_us[name] = close_us + backlog
        return decisions

    def _assess_unpriced(
        self,
        entries: List[TimedRequest],
        close_us: float,
        default_deadline_us: Optional[float],
    ) -> List[AdmissionDecision]:
        """Out-of-core scale: no model can price the case base, so the host
        engine serves *unpriced* -- only the observable wait is checked
        against the deadline, and the reason is kept."""
        reason = self.hardware_unavailable_reason or self.software_unavailable_reason
        decisions: List[AdmissionDecision] = []
        for entry in entries:
            wait_us = max(0.0, close_us - entry.arrival_us)
            deadline = (
                entry.deadline_us
                if entry.deadline_us is not None
                else default_deadline_us
            )
            admitted = deadline is None or wait_us <= deadline
            decisions.append(AdmissionDecision(
                verdict=(
                    AdmissionVerdict.DEGRADE_SOFTWARE
                    if admitted
                    else AdmissionVerdict.REJECT_DEADLINE
                ),
                wait_us=wait_us,
                queue_us=0.0,
                service_us=0.0,
                cycles=0,
                deadline_us=deadline,
                reason=reason or "" if admitted else _missed(deadline, wait_us),
            ))
        return decisions

    # -- journal state ---------------------------------------------------------------

    def snapshot_ready(self) -> bool:
        """Whether a journal snapshot taken now loses no routing state.

        A cluster is quiescent only once every device image tracks the case
        base: restoring a snapshot rebuilds the fleet over the recovered case
        base, so a snapshot taken with stale images would silently skip the
        pending delta streams on recovery.  The single-node topology adopts
        images for free and never streams them.
        """
        return not self.cluster or all(
            worker.image_revision == self.case_base.revision
            for worker in self.fleet.workers
        )

    def state_snapshot(self) -> Dict[str, object]:
        """Restorable occupancy state (the journal's ``engine_state``)."""
        snapshot: Dict[str, object] = {
            "router": {
                "free_at_us": dict(self.free_at_us),
                "assigned_counts": dict(self.assigned_counts),
                "busy_us": dict(self.busy_us),
                "first_dispatch_us": self.first_dispatch_us,
                "last_completion_us": self.last_completion_us,
                "requeue_count": self.requeue_count,
            },
            "ports": {
                worker.name: worker.controller.reconfiguration.busy_until_us()
                for worker in self.fleet.workers
                if worker.controller.reconfiguration is not None
            },
        }
        if self.health is not None:
            snapshot["health"] = {
                "states": dict(self.health.states),
                "failures": dict(self.health.failures),
                "release_at_us": dict(self.health.release_at_us),
            }
        return snapshot

    def restore_state(self, snapshot: Mapping[str, object]) -> None:
        """Adopt a :meth:`state_snapshot` taken by a previous incarnation.

        Snapshots of earlier releases are accepted too: a single-node
        ``{"admission": {"hardware_free_at_us": ..., "software_free_at_us":
        ...}}`` becomes the ``hardware``/``software`` workers' free-at times.
        """
        router = snapshot.get("router")
        health = snapshot.get("health")
        try:
            if router is None:
                router = {"free_at_us": {
                    str(key)[: -len("_free_at_us")]: value
                    for key, value in dict(snapshot["admission"]).items()
                }}
            free_at_us = _typed(router["free_at_us"], float)
            assigned = _typed(router.get("assigned_counts", {}), int)
            busy = _typed(router.get("busy_us", {}), float)
            first = router.get("first_dispatch_us")
            self.first_dispatch_us = None if first is None else float(first)
            self.last_completion_us = float(router.get("last_completion_us", 0.0))
            self.requeue_count = int(router.get("requeue_count", 0))
            ports = _typed(snapshot.get("ports", {}), float)
            if self.health is not None and isinstance(health, Mapping):
                self.health.states = _typed(health["states"], str)
                self.health.failures = _typed(health["failures"], int)
                self.health.release_at_us = _typed(health["release_at_us"], float)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(f"malformed journal engine_state: {exc}") from exc
        unknown = (set(free_at_us) | set(assigned) | set(busy)) - set(self.free_at_us)
        if unknown:
            raise ReproError(
                f"journal engine_state names workers the fleet lacks: "
                f"{sorted(unknown)}"
            )
        self.free_at_us.update(free_at_us)
        self.assigned_counts.update(assigned)
        self.busy_us.update(busy)
        for worker in self.fleet.workers:
            reconfiguration = worker.controller.reconfiguration
            if reconfiguration is not None and worker.name in ports:
                reconfiguration.restore_occupancy(ports[worker.name])

    # -- the fleet report ------------------------------------------------------------

    def fleet_report(self, served: int) -> Dict[str, object]:
        """The per-worker ``cluster`` section of a replay's metrics.

        Drains first: the last micro-batch's learning window has no next
        dispatch to sync at, so it is propagated now -- the replay leaves
        every device's image consistent with the evolved case base.
        """
        self._record_sync(self.fleet.sync(self.last_completion_us))
        makespan_us = self.makespan_us()
        events = self.sync_events
        hardware_syncs = [
            event.incremental for event in events
            if self.fleet.worker(event.worker).kind == HARDWARE
        ]
        report: Dict[str, object] = {
            "devices": len(self.fleet),
            "workers": {
                worker.name: {
                    "kind": worker.kind,
                    "clock_mhz": worker.clock_mhz,
                    "assigned": self.assigned_counts[worker.name],
                    "busy_us": round(self.busy_us[worker.name], 3),
                    "utilization": (
                        self.busy_us[worker.name] / makespan_us if makespan_us else 0.0
                    ),
                    "image_revision": worker.image_revision,
                }
                for worker in self.fleet.workers
            },
            "sync": {
                "events": len(events),
                "incremental": hardware_syncs.count(True),
                "full": hardware_syncs.count(False),
                "bytes_streamed": sum(event.bytes_streamed for event in events),
                "reconfiguration_us": round(
                    sum(event.duration_us for event in events), 3
                ),
            },
            "modelled_makespan_us": round(makespan_us, 3),
            #: Served requests per modelled second of fleet time -- the
            #: capacity figure the cluster benchmark gates (host wall-clock
            #: throughput stays in the base metrics).
            "modelled_throughput_rps": (
                served / (makespan_us * 1e-6) if makespan_us else None
            ),
        }
        if self.health is not None:
            report["resilience"] = {
                "health": self.health.counts(),
                "worker_states": dict(self.health.states),
                "requeues": self.requeue_count,
                "sync_retries": sum(max(0, event.attempts - 1) for event in events),
                "failed_syncs": sum(
                    1 for event in events if event.status != "applied"
                ),
            }
        return report

    # -- post-retrieval feasibility screening ----------------------------------------

    def feasibility_failure(self, result: RetrievalResult) -> Optional[str]:
        """Reason the merged ranking is unservable on the platform, or ``None``.

        Reuses the allocation layer's exact feasibility verdicts: the
        candidates are ranked through
        :meth:`FeasibilityChecker.rank
        <repro.allocation.feasibility.FeasibilityChecker.rank>`; if *no*
        candidate can be placed (even with preemption), the first verdict's
        reason is reported.  Without a configured checker (or with an empty
        ranking) no screening happens.
        """
        if self.feasibility is None or not result.ranked:
            return None
        reports = self.feasibility.rank(
            [entry.implementation for entry in result.ranked]
        )
        if any(report.is_feasible for report in reports):
            return None
        first = reports[0]
        return first.reason or first.verdict.value
