"""Device fleets: N retrieval workers on the reconfigurable platform.

The paper's premise is a *platform* of reconfigurable devices (Fig. 1), yet
until this module the serving stack modelled a single node: one hardware
retrieval unit and one software path.  A :class:`DeviceFleet` registers N
heterogeneous retrieval workers -- hardware retrieval units living in the
static region of FPGA devices, software retrieval units on processors -- each
bound to a platform :class:`~repro.platform.device.Device` through its
:class:`~repro.platform.runtime_controller.LocalRuntimeController`, with the
fleet-wide load/power view provided by the existing
:class:`~repro.platform.resource_state.SystemResourceState`.

The fleet's job beyond registration is **reconfiguration-aware image
propagation**: every hardware worker serves retrievals from an on-device
CB-MEM image of the shared case base.  When the case base mutates (online
learning retains/revises cases mid-stream), each device's cached image goes
stale and must be re-streamed through that device's configuration port before
the worker may serve again -- the port is a serial resource, so the worker is
*unavailable* for the duration.  :meth:`DeviceFleet.sync` models exactly
that, reusing the PR 4 delta machinery to decide how much must be streamed:

* a delta window still covered by the case base's
  :class:`~repro.core.deltas.DeltaLog` streams only the touched types' share
  of the image (incremental update of the device memory);
* a truncated window (or a bounds-table change, which rescales the baked
  similarity constants) streams the full image.

The admission router (:mod:`repro.serving.admission`) consults
:meth:`RetrievalWorker.available_from` -- which folds in reconfiguration-port
occupancy and scheduled outages -- before assigning work, so a device
mid-reconfiguration degrades traffic to software or queues it.
:meth:`DeviceFleet.single_node` is the paper's single node as a fleet: one
hardware and one software worker whose image adoption costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.case_base import CaseBase
from ..core.exceptions import PlatformError
from .fpga import virtex2_3000_fpga
from .processor import host_cpu
from .repository import ConfigurationRepository
from .resource_state import SystemResourceState
from .runtime_controller import LocalRuntimeController

#: Worker kinds a fleet can register.
HARDWARE = "hardware"
SOFTWARE = "software"


@dataclass(frozen=True)
class WorkerSyncEvent:
    """One modelled propagation of case-base deltas to a worker's image."""

    worker: str
    #: Case-base revision the worker's image reflects after the sync.
    revision: int
    start_us: float
    duration_us: float
    bytes_streamed: int
    #: ``True`` when only the touched types' share of the image was streamed.
    incremental: bool
    #: Stream attempts consumed (> 1 when fault-injected attempts were
    #: retried under the fleet's :class:`~repro.resilience.RetryPolicy`).
    attempts: int = 1
    #: ``"applied"`` when the image landed; ``"failed"`` when every attempt
    #: hit an injected stream fault -- the worker's image stays stale and
    #: the router quarantines it until a later sync (the probe) succeeds.
    status: str = "applied"

    @property
    def end_us(self) -> float:
        """Completion time of the sync in microseconds."""
        return self.start_us + self.duration_us


class RetrievalWorker:
    """One retrieval-serving unit bound to a platform device.

    Parameters
    ----------
    name:
        Worker name (doubles as the underlying device name).
    controller:
        The device's local run-time controller.  Hardware workers use its
        :class:`~repro.platform.reconfiguration.ReconfigurationController`
        to model image streaming; software workers have none.
    kind:
        ``"hardware"`` (retrieval unit in the FPGA's static region) or
        ``"software"`` (retrieval routine on the processor).
    clock_mhz:
        Clock the worker's service times are derived at
        (``cycles / clock_mhz``).
    case_base:
        The shared case base; the worker's cached image starts current.
    """

    def __init__(
        self,
        name: str,
        controller: LocalRuntimeController,
        *,
        kind: str,
        clock_mhz: float,
        case_base: CaseBase,
    ) -> None:
        if kind not in (HARDWARE, SOFTWARE):
            raise PlatformError(
                f"worker kind must be '{HARDWARE}' or '{SOFTWARE}', got {kind!r}"
            )
        if clock_mhz <= 0:
            raise PlatformError(f"worker clock must be positive, got {clock_mhz}")
        if kind == HARDWARE and controller.reconfiguration is None:
            raise PlatformError(
                f"hardware worker {name!r} needs a device with a reconfiguration port"
            )
        self.name = name
        self.controller = controller
        self.kind = kind
        self.clock_mhz = clock_mhz
        #: Case-base revision the on-device image currently reflects.
        self.image_revision = case_base.revision
        self.sync_events: List[WorkerSyncEvent] = []
        self._outages: List[Tuple[float, float]] = []

    @property
    def device(self):
        """The underlying platform device."""
        return self.controller.device

    # -- availability ---------------------------------------------------------------

    def add_outage(self, start_us: float, end_us: float) -> None:
        """Schedule a window during which the worker cannot serve.

        Models a device taken offline (full reconfiguration, maintenance,
        failure + recovery); the fleet-failover workload drives this.
        """
        if start_us < 0 or end_us <= start_us:
            raise PlatformError(
                f"outage window must be non-empty and non-negative, "
                f"got [{start_us}, {end_us})"
            )
        self._outages.append((start_us, end_us))
        self._outages.sort()

    def outages(self) -> List[Tuple[float, float]]:
        """Scheduled outage windows, sorted by start time."""
        return list(self._outages)

    def available_from(self, now_us: float, service_us: float = 0.0) -> float:
        """Earliest time at/after ``now_us`` the device can start new work.

        Folds in reconfiguration-port occupancy (a device mid-reconfiguration
        is unavailable until the stream completes) and scheduled outages:
        with a ``service_us``, work may not *overlap* an outage either -- a
        job that would still be running when the device goes down starts
        after the window instead.  Queued retrieval work is tracked by the
        router, not here.
        """
        available = now_us
        reconfiguration = self.controller.reconfiguration
        if reconfiguration is not None:
            available = max(available, reconfiguration.busy_until_us())
        # Outages are sorted by start, so one forward pass settles: pushing
        # the start time right can only collide with later windows.
        for start, end in self._outages:
            if available < end and (available >= start or available + service_us > start):
                available = end
        return available

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RetrievalWorker(name={self.name!r}, kind={self.kind!r}, "
            f"clock_mhz={self.clock_mhz})"
        )


class DeviceFleet:
    """Registry of retrieval workers over one shared case base.

    Parameters
    ----------
    case_base:
        The case base every worker serves.
    workers:
        The registered workers (at least one; names must be unique).
    repository:
        Optional configuration repository the devices fetch images from.
    power_budget_mw:
        Optional fleet-wide power budget for the resource state.
    reconfig_us:
        Optional fixed per-sync reconfiguration latency.  ``None`` derives
        the latency from the streamed byte count through each device's
        configuration-port bandwidth model.
    image_words:
        Optional zero-argument callable returning the current CB-MEM image
        word count (used to size modelled image streams).  The admission
        controller serving the fleet installs its hardware unit's counter;
        a standalone fleet builds one on first use.
    """

    def __init__(
        self,
        case_base: CaseBase,
        workers: Sequence[RetrievalWorker],
        *,
        repository: Optional[ConfigurationRepository] = None,
        power_budget_mw: Optional[float] = None,
        reconfig_us: Optional[float] = None,
        image_words: Optional[Callable[[], int]] = None,
    ) -> None:
        workers = list(workers)
        if not workers:
            raise PlatformError("a device fleet needs at least one worker")
        names = [worker.name for worker in workers]
        if len(set(names)) != len(names):
            raise PlatformError(f"fleet worker names must be unique, got {names}")
        if reconfig_us is not None and reconfig_us < 0:
            raise PlatformError(f"reconfig_us must be non-negative, got {reconfig_us}")
        self.case_base = case_base
        self.workers = workers
        self.repository = repository
        self.reconfig_us = reconfig_us
        self.image_words = image_words
        #: Case-base revision every worker image last reached (``None`` until
        #: the first sync); lets :meth:`sync` return after one compare.
        self._synced_revision: Optional[int] = None
        self.resource_state = SystemResourceState(
            (worker.controller for worker in workers),
            power_budget_mw=power_budget_mw,
        )
        #: Optional fault-injection harness + retry policy (PR 7); installed
        #: via :meth:`apply_faults`, ``None`` keeps :meth:`sync` on the exact
        #: single-attempt path previous releases modelled.
        self.fault_injector = None
        self.retry_policy = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def build(
        cls,
        case_base: CaseBase,
        *,
        hardware_devices: int = 2,
        software_devices: int = 1,
        hardware_config: object = None,
        clock_mhz: float = 66.0,
        power_budget_mw: Optional[float] = None,
        reconfig_us: Optional[float] = None,
        repository: Optional[ConfigurationRepository] = None,
    ) -> "DeviceFleet":
        """Assemble a fleet of FPGA-hosted hardware workers plus CPU fallbacks.

        ``hardware_devices`` FPGAs each host one hardware retrieval unit in
        their static region; ``software_devices`` host CPUs each run the
        software retrieval routine.  All workers run at one clock -- the
        paper's equal-clock comparison, matching the admission controller's
        convention that an explicit ``hardware_config``'s clock takes
        precedence over ``clock_mhz`` *for the software path too*.  The
        fleet builds no retrieval-unit models: service times are priced by
        the admission controller that serves it.
        """
        if hardware_devices < 0 or software_devices < 0:
            raise PlatformError("device counts must be non-negative")
        if hardware_devices + software_devices < 1:
            raise PlatformError("a device fleet needs at least one device")
        if hardware_config is not None:
            clock_mhz = hardware_config.clock_mhz
        workers = [
            RetrievalWorker(
                f"{prefix}{index}",
                LocalRuntimeController(device(f"{prefix}{index}"), repository),
                kind=kind,
                clock_mhz=clock_mhz,
                case_base=case_base,
            )
            for prefix, device, kind, count in (
                ("fpga", virtex2_3000_fpga, HARDWARE, hardware_devices),
                ("cpu", host_cpu, SOFTWARE, software_devices),
            )
            for index in range(count)
        ]
        return cls(
            case_base,
            workers,
            repository=repository,
            power_budget_mw=power_budget_mw,
            reconfig_us=reconfig_us,
        )

    @classmethod
    def single_node(
        cls,
        case_base: CaseBase,
        *,
        hardware_clock_mhz: float,
        software_clock_mhz: float,
    ) -> "DeviceFleet":
        """The paper's single node: workers named ``hardware`` and ``software``.

        Its reconfiguration port costs nothing (``reconfig_us=0``): image
        adoption is free, as in the two-serial-server model the admission
        gate started from.
        """
        workers = [
            RetrievalWorker(
                kind,
                LocalRuntimeController(device(kind)),
                kind=kind,
                clock_mhz=clock_mhz,
                case_base=case_base,
            )
            for kind, device, clock_mhz in (
                (HARDWARE, virtex2_3000_fpga, hardware_clock_mhz),
                (SOFTWARE, host_cpu, software_clock_mhz),
            )
        ]
        return cls(case_base, workers, reconfig_us=0.0)

    # -- queries ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.workers)

    def worker(self, name: str) -> RetrievalWorker:
        """One worker by name."""
        for worker in self.workers:
            if worker.name == name:
                return worker
        raise PlatformError(f"fleet has no worker named {name!r}")

    @property
    def hardware_workers(self) -> List[RetrievalWorker]:
        """The hardware retrieval workers, in registration order."""
        return [worker for worker in self.workers if worker.kind == HARDWARE]

    @property
    def software_workers(self) -> List[RetrievalWorker]:
        """The software retrieval workers, in registration order."""
        return [worker for worker in self.workers if worker.kind == SOFTWARE]

    def snapshot(self) -> Dict[str, object]:
        """Fleet state view (worker registry + platform load/power snapshot).

        The worker registry and the resource-state snapshot describe the same
        devices, so the two views round-trip: every worker name appears in
        the system snapshot and vice versa (property-tested).
        """
        system = self.resource_state.snapshot()
        return {
            "workers": {
                worker.name: {
                    "kind": worker.kind,
                    "clock_mhz": worker.clock_mhz,
                    "image_revision": worker.image_revision,
                    "device_kind": worker.device.kind.value,
                    "utilization": system.utilization_of(worker.name),
                }
                for worker in self.workers
            },
            "system": system,
        }

    # -- image propagation -------------------------------------------------------------

    def image_word_count(self) -> int:
        """Word count of one full on-device CB-MEM image."""
        if self.image_words is None:
            # Software-only fleets never stream images; a zero-sized image
            # keeps sync a no-op without demanding a hardware unit.
            if not self.hardware_workers:
                return 0
            from ..hardware.retrieval_unit import HardwareRetrievalUnit

            self.image_words = HardwareRetrievalUnit(self.case_base).image_word_count
        return int(self.image_words())

    def _stream_words(self, worker: RetrievalWorker) -> Tuple[int, bool]:
        """``(words to stream, incremental?)`` to bring one image current.

        The delta log decides: a covered window streams only the touched
        types' share of the image (rounded up); a truncated window or a
        bounds change (which rescales the baked ``1/(1+dmax)`` constants
        throughout the supplemental lists) streams the full image.
        """
        full_words = self.image_word_count()
        summary = self.case_base.delta_log.summary_since(worker.image_revision)
        if summary is None or summary.bounds_changed:
            return full_words, False
        type_count = max(1, len(self.case_base))
        touched = len(summary.touched_types)
        if touched == 0:
            return 0, True
        return math.ceil(full_words * min(1.0, touched / type_count)), True

    def sync(self, now_us: float) -> List[WorkerSyncEvent]:
        """Propagate pending case-base deltas to every worker's cached image.

        Hardware workers stream the update through their device's serial
        configuration port -- the port's occupancy makes the worker
        unavailable until the stream completes (see
        :meth:`RetrievalWorker.available_from`).  Software workers re-fetch
        opcode from the repository per placement, not per retrieval, so
        their image adoption is modelled as instantaneous.
        """
        revision = self.case_base.revision
        if revision == self._synced_revision:
            return []
        from ..memmap.words import words_to_bytes

        events: List[WorkerSyncEvent] = []
        current = True
        for worker in self.workers:
            if worker.image_revision == revision:
                continue
            if worker.kind == HARDWARE:
                words, incremental = self._stream_words(worker)
                streamed_bytes = words_to_bytes(words)
                event = self._stream_image(
                    worker, revision, streamed_bytes, incremental, now_us
                )
                if event.status != "applied":
                    # The image never landed: leave the worker's revision
                    # stale so the next sync (the router's probe) retries.
                    worker.sync_events.append(event)
                    events.append(event)
                    current = False
                    continue
            else:
                event = WorkerSyncEvent(
                    worker=worker.name,
                    revision=revision,
                    start_us=now_us,
                    duration_us=0.0,
                    bytes_streamed=0,
                    incremental=True,
                )
            worker.image_revision = revision
            worker.sync_events.append(event)
            events.append(event)
        if current:
            self._synced_revision = revision
        return events

    def _stream_image(
        self,
        worker: RetrievalWorker,
        revision: int,
        streamed_bytes: int,
        incremental: bool,
        now_us: float,
    ) -> WorkerSyncEvent:
        """Stream one image to one hardware worker, retrying injected faults.

        Without a fault injector this is exactly one port transfer (the
        pre-PR 7 behaviour, bit-for-bit).  With one, each attempt started
        inside a stream-fault window fails -- a truncated attempt occupies the
        port for ``factor`` of the modelled duration, a corrupted one for all
        of it -- and the retry policy schedules the next attempt in virtual
        time with seeded backoff jitter.  The reported sync event spans first
        start to last end and sums the streamed bytes, so the metrics'
        ``bytes_streamed`` measures traffic, not useful payload.
        """
        from ..resilience.retry import derive_rng

        reconfiguration = worker.controller.reconfiguration
        reconfig_us = self.reconfig_us
        fault_injector = self.fault_injector
        retry_policy = self.retry_policy
        if fault_injector is None:
            port_event = reconfiguration.schedule(
                0, streamed_bytes, now_us, duration_us=reconfig_us
            )
            return WorkerSyncEvent(
                worker=worker.name,
                revision=revision,
                start_us=port_event.start_us,
                duration_us=port_event.duration_us,
                bytes_streamed=streamed_bytes,
                incremental=incremental,
            )
        rng = derive_rng(fault_injector.plan.seed, "stream", worker.name, revision)
        attempt_at = now_us
        attempt = 0
        first_start: Optional[float] = None
        total_bytes = 0
        while True:
            fault = fault_injector.stream_fault(worker.name, attempt_at)
            if fault is None:
                port_event = reconfiguration.schedule(
                    0, streamed_bytes, attempt_at, duration_us=reconfig_us
                )
                if first_start is None:
                    first_start = port_event.start_us
                return WorkerSyncEvent(
                    worker=worker.name,
                    revision=revision,
                    start_us=first_start,
                    duration_us=port_event.end_us - first_start,
                    bytes_streamed=total_bytes + streamed_bytes,
                    incremental=incremental,
                    attempts=attempt + 1,
                )
            full_duration = (
                reconfig_us
                if reconfig_us is not None
                else reconfiguration.reconfiguration_time_us(streamed_bytes)
            )
            if fault.kind == "stream_truncate":
                fraction = min(1.0, fault.factor)
                duration = full_duration * fraction
                streamed = int(streamed_bytes * fraction)
                status = "failed-truncated"
            else:
                duration = full_duration
                streamed = streamed_bytes
                status = "failed-corrupted"
            port_event = reconfiguration.schedule(
                0, streamed, attempt_at, duration_us=duration, status=status
            )
            if first_start is None:
                first_start = port_event.start_us
            total_bytes += streamed
            retry_at = (
                retry_policy.next_attempt_us(attempt, port_event.end_us, rng=rng)
                if retry_policy is not None
                else None
            )
            if retry_at is None:
                return WorkerSyncEvent(
                    worker=worker.name,
                    revision=revision,
                    start_us=first_start,
                    duration_us=port_event.end_us - first_start,
                    bytes_streamed=total_bytes,
                    incremental=incremental,
                    attempts=attempt + 1,
                    status="failed",
                )
            attempt += 1
            attempt_at = retry_at

    def apply_faults(self, injector, retry_policy) -> None:
        """Install the fault-injection harness on this fleet (idempotent).

        Crash/hang windows become modelled worker outages (they survive
        :meth:`reset_timing`, like scripted outages do); stream faults are
        evaluated per attempt inside :meth:`sync`.
        """
        if getattr(self, "_faults_applied", False):
            self.fault_injector = injector
            self.retry_policy = retry_policy
            return
        self.fault_injector = injector
        self.retry_policy = retry_policy
        if injector is not None:
            injector.apply_to_fleet(self)
        self._faults_applied = True

    def reset_timing(self) -> None:
        """Clear modelled port occupancy and sync logs (between replays).

        Worker ``image_revision`` is *not* reset: it tracks which case-base
        state the devices actually hold, which survives across replays.
        """
        for worker in self.workers:
            reconfiguration = worker.controller.reconfiguration
            if reconfiguration is not None:
                reconfiguration.reset()
            worker.sync_events.clear()
