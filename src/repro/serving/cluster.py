"""Cluster-scale serving: routing micro-batches across a device fleet.

PR 3's serving engine models the paper's single node -- one hardware
retrieval unit, one software path -- as two serial servers.  This module
generalises that admission model to a whole
:class:`~repro.platform.fleet.DeviceFleet` of N heterogeneous workers, the
system the paper implies: a platform of run-time reconfigurable devices
answering retrieval traffic.

* :class:`ClusterRouter` assigns each dispatchable request (in arrival
  order) to the earliest-finishing worker of the preferred tier, using
  *exact* per-request cycle counts from the admission controller's
  ``predict_cycles`` fast path (``cycles / worker clock`` -- no estimation)
  plus each device's modelled reconfiguration-port occupancy and scheduled
  outages: a device mid-reconfiguration is unavailable, so its traffic
  degrades to software (under a deadline) or queues behind the stream.
  With a fleet of one hardware and one software worker at equal clock the
  router reproduces the PR 3 two-server admission decisions exactly
  (differentially tested).

* :class:`ClusterServingEngine` plugs the router into the serving
  pipeline's admission hooks, so scheduling, screening, sharded retrieval,
  feasibility screening and online learning are all inherited unchanged --
  cluster routing redistributes *where* modelled service happens, never
  *what* is retrieved, which is why cluster rankings are bit-identical to
  single-device serving on the same trace (the ``repro serve-cluster
  --engine compare`` gate).  Before every batch the fleet propagates
  pending case-base delta windows to each device's cached image
  (:meth:`DeviceFleet.sync <repro.platform.fleet.DeviceFleet.sync>`), so
  online CBR learning works fleet-wide: a retain step makes every hardware
  device briefly unavailable while the delta streams through its
  configuration port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..allocation.feasibility import FeasibilityChecker
from ..core.case_base import CaseBase
from ..core.exceptions import ReproError
from ..observability import catalog
from ..platform.fleet import HARDWARE, DeviceFleet, RetrievalWorker, WorkerSyncEvent
from ..resilience import FaultInjector, RetryPolicy
from .admission import AdmissionController, AdmissionDecision, AdmissionVerdict
from .engine import ServingConfig, ServingEngine, ServingStatus
from .loadgen import TimedRequest


@dataclass(frozen=True)
class ClusterDecision(AdmissionDecision):
    """One request's routing assessment: the admission decision plus a worker."""

    worker: str = ""
    worker_kind: str = ""


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


class ClusterRouter:
    """Earliest-finish routing over a device fleet, arrival order preserved.

    The PR 3 two-server policy generalised to N servers: a request is
    admitted to the earliest-finishing *hardware* worker whose completion
    meets the deadline; otherwise it degrades to the earliest-finishing
    *software* worker that still meets it; otherwise it is rejected.
    Without a deadline every request goes to hardware (queueing behind
    reconfigurations and outages), exactly like the two-server model admits
    everything to the hardware unit.  Completion times fold in three
    occupancy sources: queued retrieval work (tracked here per worker),
    the device's reconfiguration-port busy window, and scheduled outages
    (both via :meth:`RetrievalWorker.available_from
    <repro.platform.fleet.RetrievalWorker.available_from>`).
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        admission: AdmissionController,
        *,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.fleet = fleet
        self.admission = admission
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        #: Health tracking only exists under fault injection: the healthy
        #: fleet keeps its exact pre-PR 7 routing arithmetic.
        self.health: Optional[WorkerHealth] = (
            WorkerHealth([worker.name for worker in fleet.workers])
            if fault_injector is not None
            else None
        )
        self._free_at_us: Dict[str, float] = {}
        self.assigned_counts: Dict[str, int] = {}
        self.busy_us: Dict[str, float] = {}
        #: Optional :class:`~repro.observability.Observability` hub installed
        #: by the owning engine (health gauge, requeue counters, tier spans).
        self.observability = None
        self.reset()

    def reset(self) -> None:
        """Clear per-replay queue occupancy and accounting."""
        self._free_at_us = {worker.name: 0.0 for worker in self.fleet.workers}
        self.assigned_counts = {worker.name: 0 for worker in self.fleet.workers}
        self.busy_us = {worker.name: 0.0 for worker in self.fleet.workers}
        self.first_dispatch_us: Optional[float] = None
        self.last_completion_us = 0.0
        self.requeue_count = 0
        #: Health states last published to the metrics gauge (transition
        #: detection; observation only, never consulted for routing).
        self._published_states: Dict[str, str] = {}
        if self.health is not None:
            self.health.reset([worker.name for worker in self.fleet.workers])

    # -- health observation ------------------------------------------------------------

    def _observe_health(self, now_us: float) -> None:
        """Fold the injector's fault windows into the health tracker."""
        assert self.health is not None and self.fault_injector is not None
        for worker in self.fleet.workers:
            if self.fault_injector.worker_down(worker.name, now_us):
                self.health.observe_failure(worker.name, now_us)
            else:
                self.health.observe_recovery(worker.name, now_us)

    def record_sync_failure(self, worker: str, now_us: float) -> None:
        """Count an exhausted image-stream retry against the worker's health."""
        if self.health is not None:
            self.health.observe_failure(worker, now_us)
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
        self, workers: Sequence[RetrievalWorker], now_us: float
    ) -> List[RetrievalWorker]:
        """The tier minus quarantined workers (probes re-admit them)."""
        if self.health is None:
            return list(workers)
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
        workers: Sequence[RetrievalWorker],
        cycles: int,
        close_us: float,
    ) -> Optional[Tuple[RetrievalWorker, float, float]]:
        """``(worker, start_us, service_us)`` minimising finish time, or ``None``.

        Ties break on registration order, keeping routing deterministic.
        """
        best: Optional[Tuple[RetrievalWorker, float, float]] = None
        best_finish = float("inf")
        for worker in workers:
            service = cycles / worker.clock_mhz
            if self.fault_injector is not None:
                # Slow-device faults stretch the modelled service time --
                # a capacity effect only; rankings are unaffected.
                service *= self.fault_injector.service_factor(worker.name, close_us)
            # Passing the service time keeps work from overlapping an outage:
            # a job that would still be running when the device goes down is
            # started after the window instead.
            start = worker.available_from(
                max(close_us, self._free_at_us[worker.name]), service
            )
            finish = start + service
            if finish < best_finish:
                best = (worker, start, service)
                best_finish = finish
        return best

    def _assign(
        self,
        candidate: Tuple[RetrievalWorker, float, float],
        cycles: int,
        wait_us: float,
        close_us: float,
        deadline_us: Optional[float],
        reason: str,
    ) -> ClusterDecision:
        worker, start_us, service_us = candidate
        self._free_at_us[worker.name] = start_us + service_us
        self.assigned_counts[worker.name] += 1
        self.busy_us[worker.name] += service_us
        if self.first_dispatch_us is None:
            self.first_dispatch_us = close_us
        self.last_completion_us = max(self.last_completion_us, start_us + service_us)
        return ClusterDecision(
            verdict=(
                AdmissionVerdict.ADMIT_HARDWARE
                if worker.kind == HARDWARE
                else AdmissionVerdict.DEGRADE_SOFTWARE
            ),
            wait_us=wait_us,
            queue_us=start_us - close_us,
            service_us=service_us,
            cycles=cycles,
            deadline_us=deadline_us,
            reason=reason,
            worker=worker.name,
            worker_kind=worker.kind,
        )

    # -- the routing gate --------------------------------------------------------------

    def route_batch(
        self,
        entries: Sequence[TimedRequest],
        close_us: float,
        *,
        default_deadline_us: Optional[float] = None,
        degrade_to_software: bool = True,
    ) -> List[ClusterDecision]:
        """Route one dispatch batch; decision ``i`` covers entry ``i``."""
        entries = list(entries)
        if not entries:
            return []
        requests = [entry.request for entry in entries]
        all_hardware = self.fleet.hardware_workers
        all_software = self.fleet.software_workers
        if self.health is not None:
            self._observe_health(close_us)
            self._publish_health()
        hardware_workers = self._routable(all_hardware, close_us)
        software_workers = self._routable(all_software, close_us)
        hardware_times = (
            self.admission.hardware_times_us(requests) if hardware_workers else None
        )
        #: Lazily computed, like the base admission gate: an all-hardware
        #: batch never pays for the software cycle model.
        software_times: Optional[List[tuple]] = (
            self.admission.software_times_us(requests)
            if not hardware_workers and software_workers
            else None
        )
        #: Software is the fallback tier behind hardware, or the primary
        #: tier of a software-only fleet (no degrade gating applies then).
        #: The degrade gate looks at the *configured* fleet, not the
        #: quarantine-filtered one: ``degrade_to_software=False`` must stay
        #: honoured even while every hardware worker is quarantined.
        software_allowed = bool(software_workers) and (
            degrade_to_software or not all_hardware
        )
        #: A tier that exists but is entirely quarantined blocks requests the
        #: healthy fleet would have served -- the ``REQUEUE`` rung below.
        hardware_blocked = bool(all_hardware) and not hardware_workers
        software_blocked = (
            bool(all_software)
            and (degrade_to_software or not all_hardware)
            and not software_workers
        )
        quarantine_blocked = hardware_blocked or software_blocked
        decisions: List[ClusterDecision] = []
        for index, entry in enumerate(entries):
            wait_us = max(0.0, close_us - entry.arrival_us)
            deadline = (
                entry.deadline_us
                if entry.deadline_us is not None
                else default_deadline_us
            )
            degrade_reason = ""
            if hardware_workers:
                cycles = hardware_times[index][0]
                candidate = self._best_candidate(hardware_workers, cycles, close_us)
                _, start_us, service_us = candidate
                if deadline is None or wait_us + (start_us - close_us) + service_us <= deadline:
                    decisions.append(self._assign(
                        candidate, cycles, wait_us, close_us, deadline, ""
                    ))
                    continue
                degrade_reason = (
                    "hardware queue misses the deadline; software path fits"
                )
            if software_allowed:
                if software_times is None:
                    software_times = self.admission.software_times_us(requests)
                sw_cycles = software_times[index][0]
                sw_candidate = self._best_candidate(
                    software_workers, sw_cycles, close_us
                )
                _, start_us, service_us = sw_candidate
                if deadline is None or wait_us + (start_us - close_us) + service_us <= deadline:
                    decisions.append(self._assign(
                        sw_candidate, sw_cycles, wait_us, close_us, deadline,
                        degrade_reason,
                    ))
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
                decisions.append(ClusterDecision(
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
            #: Rejection diagnostics mirror the two-server gate: the primary
            #: tier's best candidate at assessment time (falling back to the
            #: unfiltered tier when quarantine emptied it).
            diag_hardware = hardware_workers or all_hardware
            if diag_hardware:
                if hardware_times is None:
                    hardware_times = self.admission.hardware_times_us(requests)
                diag_cycles = hardware_times[index][0]
                diag = self._best_candidate(diag_hardware, diag_cycles, close_us)
            else:
                if software_times is None:
                    software_times = self.admission.software_times_us(requests)
                diag_cycles = software_times[index][0]
                diag = self._best_candidate(
                    software_workers or all_software, diag_cycles, close_us
                )
            _, start_us, service_us = diag
            if deadline is not None:
                reject_reason = (
                    f"deadline budget of {deadline:.1f} us cannot be met "
                    f"(waited {wait_us:.1f} us)"
                )
                if quarantine_blocked:
                    reject_reason += " with the remaining healthy workers"
            else:
                reject_reason = (
                    "every fleet worker is quarantined and no retry "
                    "budget is configured"
                )
            decisions.append(ClusterDecision(
                verdict=AdmissionVerdict.REJECT_DEADLINE,
                wait_us=wait_us,
                queue_us=start_us - close_us,
                service_us=service_us,
                cycles=diag_cycles,
                deadline_us=deadline,
                reason=reject_reason,
            ))
        if self.observability is not None:
            tallies = {
                AdmissionVerdict.ADMIT_HARDWARE: 0,
                AdmissionVerdict.DEGRADE_SOFTWARE: 0,
                AdmissionVerdict.REQUEUE: 0,
                AdmissionVerdict.REJECT_DEADLINE: 0,
            }
            for decision in decisions:
                tallies[decision.verdict] += 1
            self.observability.batch_span(
                "route",
                requests=len(decisions),
                hardware=tallies[AdmissionVerdict.ADMIT_HARDWARE],
                software=tallies[AdmissionVerdict.DEGRADE_SOFTWARE],
                requeued=tallies[AdmissionVerdict.REQUEUE],
                rejected=tallies[AdmissionVerdict.REJECT_DEADLINE],
                quarantined=(
                    self.health.counts()[QUARANTINED]
                    if self.health is not None
                    else 0
                ),
            )
        return decisions


class ClusterServingEngine(ServingEngine):
    """Micro-batched serving with requests routed across a device fleet.

    Everything except admission is inherited from :class:`ServingEngine`:
    micro-batch scheduling, request screening, sharded retrieval, allocation
    feasibility screening and online learning behave identically, so cluster
    results stay bit-identical with single-device serving.  The admission
    hooks are replaced by the :class:`ClusterRouter`, and every batch
    dispatch first propagates pending case-base deltas to the devices'
    cached images (reconfiguration-aware, see
    :meth:`DeviceFleet.sync <repro.platform.fleet.DeviceFleet.sync>`).

    Parameters
    ----------
    case_base:
        The case base served (must be the fleet's).
    fleet:
        The device fleet answering the traffic.
    config / feasibility:
        As for :class:`ServingEngine`.
    fault_injector:
        Optional seeded :class:`~repro.resilience.FaultInjector`; enables
        worker health tracking, quarantine routing and the ``requeue``
        admission rung.
    retry_policy:
        Backoff budget for image-stream retries and request requeues
        (defaults to :class:`~repro.resilience.RetryPolicy` when a fault
        injector is present).
    """

    def __init__(
        self,
        case_base: CaseBase,
        fleet: DeviceFleet,
        *,
        config: Optional[ServingConfig] = None,
        feasibility: Optional[FeasibilityChecker] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if fleet.case_base is not case_base:
            raise ReproError(
                "the fleet must be built over the served case base "
                "(device images would otherwise track a different tree)"
            )
        super().__init__(case_base, config=config, feasibility=feasibility)
        self.fleet = fleet
        self.fault_injector = fault_injector
        if retry_policy is None and fault_injector is not None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        if fault_injector is not None:
            fleet.apply_faults(fault_injector, retry_policy)
        self.router = ClusterRouter(
            fleet,
            self.admission,
            fault_injector=fault_injector,
            retry_policy=retry_policy,
        )
        self.router.observability = self.observability
        self._replay_sync_events: List[WorkerSyncEvent] = []

    # -- admission hooks ---------------------------------------------------------------

    def _admission_state(self) -> Dict[str, float]:
        """Reset fleet timing and router occupancy for a fresh replay."""
        self.fleet.reset_timing()
        self.router.reset()
        self._register_worker_gauges(
            [worker.name for worker in self.fleet.workers]
        )
        self._replay_sync_events = []
        return {}

    def _assess_batch(
        self,
        state: Dict[str, float],
        entries: Sequence[TimedRequest],
        close_us: float,
    ) -> List[AdmissionDecision]:
        """Sync device images, then route the batch across the fleet."""
        sync_events = self.fleet.sync(close_us)
        for event in sync_events:
            if event.status != "applied":
                # An exhausted image-stream retry budget counts against the
                # worker's health; its stale revision is retried next sync.
                self.router.record_sync_failure(event.worker, close_us)
        self._observe_sync_events(sync_events)
        self._replay_sync_events.extend(sync_events)
        return self.router.route_batch(
            entries,
            close_us,
            default_deadline_us=self.config.deadline_us,
            degrade_to_software=self.config.degrade_to_software,
        )

    def _observe_sync_events(
        self, sync_events: Sequence[WorkerSyncEvent]
    ) -> None:
        """Count and span the fleet's delta-sync stream events."""
        observability = self.observability
        if not sync_events:
            return
        if observability.metrics_enabled:
            registry = observability.registry
            totals = catalog.fleet_sync_total(registry)
            for event in sync_events:
                totals.labels(
                    mode="incremental" if event.incremental else "full",
                    status=event.status,
                ).inc()
                catalog.fleet_sync_bytes(registry).inc(event.bytes_streamed)
                if event.attempts > 1:
                    catalog.fleet_sync_retries(registry).inc(event.attempts - 1)
        if observability.trace_enabled:
            for event in sync_events:
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

    def _served_status(
        self, decision: AdmissionDecision
    ) -> Tuple[ServingStatus, str]:
        status, _ = super()._served_status(decision)
        worker = decision.worker if isinstance(decision, ClusterDecision) else ""
        return status, worker

    # -- journal snapshot hooks --------------------------------------------------------

    def _snapshot_ready(self) -> bool:
        """Quiescent only once every device image tracks the case base.

        Restoring a snapshot resets each worker's image revision to the
        recovered case base's revision (the fleet is rebuilt over it), so a
        snapshot taken with stale images would silently skip the pending
        delta streams on recovery.  Gating compaction on image currency
        keeps the restore exact.
        """
        return all(
            worker.image_revision == self.case_base.revision
            for worker in self.fleet.workers
        )

    def _state_snapshot(self, state: Dict[str, float]) -> Dict[str, object]:
        router = self.router
        snapshot: Dict[str, object] = {
            "admission": dict(state),
            "router": {
                "free_at_us": dict(router._free_at_us),
                "assigned_counts": dict(router.assigned_counts),
                "busy_us": dict(router.busy_us),
                "first_dispatch_us": router.first_dispatch_us,
                "last_completion_us": router.last_completion_us,
                "requeue_count": router.requeue_count,
            },
            "ports": {
                worker.name: worker.controller.reconfiguration.busy_until_us()
                for worker in self.fleet.workers
                if worker.controller.reconfiguration is not None
            },
        }
        if router.health is not None:
            snapshot["health"] = {
                "states": dict(router.health.states),
                "failures": dict(router.health.failures),
                "release_at_us": dict(router.health.release_at_us),
            }
        return snapshot

    def _restore_state(
        self, state: Dict[str, float], snapshot: Mapping[str, object]
    ) -> None:
        super()._restore_state(state, snapshot)
        router_state = snapshot.get("router")
        if not isinstance(router_state, Mapping):
            raise ReproError("cluster snapshot is missing its router section")
        router = self.router
        try:
            router._free_at_us = {
                str(name): float(value)
                for name, value in dict(router_state["free_at_us"]).items()
            }
            router.assigned_counts = {
                str(name): int(value)
                for name, value in dict(router_state["assigned_counts"]).items()
            }
            router.busy_us = {
                str(name): float(value)
                for name, value in dict(router_state["busy_us"]).items()
            }
            first = router_state["first_dispatch_us"]
            router.first_dispatch_us = None if first is None else float(first)
            router.last_completion_us = float(router_state["last_completion_us"])
            router.requeue_count = int(router_state.get("requeue_count", 0))
            ports = dict(snapshot.get("ports", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed cluster snapshot state: {exc}") from exc
        for worker in self.fleet.workers:
            reconfiguration = worker.controller.reconfiguration
            if reconfiguration is not None and worker.name in ports:
                reconfiguration.restore_occupancy(float(ports[worker.name]))
        health_state = snapshot.get("health")
        if router.health is not None and isinstance(health_state, Mapping):
            router.health.states = {
                str(name): str(value)
                for name, value in dict(health_state["states"]).items()
            }
            router.health.failures = {
                str(name): int(value)
                for name, value in dict(health_state["failures"]).items()
            }
            router.health.release_at_us = {
                str(name): float(value)
                for name, value in dict(health_state["release_at_us"]).items()
            }

    def _extend_metrics(self, metrics_report: Dict[str, object]) -> None:
        """Add the per-worker fleet section to the replay metrics."""
        # Drain: the last micro-batch's learning window has no next dispatch
        # to sync at, so propagate it now -- the replay leaves every device's
        # image consistent with the evolved case base.
        drained_events = self.fleet.sync(self.router.last_completion_us)
        self._observe_sync_events(drained_events)
        self._replay_sync_events.extend(drained_events)
        makespan_us = self.router.makespan_us()
        sync_events = self._replay_sync_events
        hardware_syncs = [
            event for event in sync_events
            if self.fleet.worker(event.worker).kind == HARDWARE
        ]
        metrics_report["cluster"] = {
            "devices": len(self.fleet),
            "workers": {
                worker.name: {
                    "kind": worker.kind,
                    "clock_mhz": worker.clock_mhz,
                    "assigned": self.router.assigned_counts[worker.name],
                    "busy_us": round(self.router.busy_us[worker.name], 3),
                    "utilization": (
                        self.router.busy_us[worker.name] / makespan_us
                        if makespan_us
                        else 0.0
                    ),
                    "image_revision": worker.image_revision,
                }
                for worker in self.fleet.workers
            },
            "sync": {
                "events": len(sync_events),
                "incremental": sum(
                    1 for event in hardware_syncs if event.incremental
                ),
                "full": sum(
                    1 for event in hardware_syncs if not event.incremental
                ),
                "bytes_streamed": sum(
                    event.bytes_streamed for event in sync_events
                ),
                "reconfiguration_us": round(
                    sum(event.duration_us for event in sync_events), 3
                ),
            },
            "modelled_makespan_us": round(makespan_us, 3),
            #: Modelled replay throughput: served requests per modelled
            #: second of fleet time -- the capacity figure the cluster
            #: benchmark gates (wall-clock host throughput stays in the
            #: base metrics).
            "modelled_throughput_rps": (
                metrics_report["served"] / (makespan_us * 1e-6)
                if makespan_us
                else None
            ),
        }
        if self.fault_injector is not None and self.router.health is not None:
            cluster_report = metrics_report["cluster"]
            assert isinstance(cluster_report, dict)
            cluster_report["resilience"] = {
                "health": self.router.health.counts(),
                "worker_states": dict(self.router.health.states),
                "requeues": self.router.requeue_count,
                "sync_retries": sum(
                    max(0, event.attempts - 1) for event in sync_events
                ),
                "failed_syncs": sum(
                    1 for event in sync_events if event.status != "applied"
                ),
            }
