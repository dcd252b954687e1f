"""The function-allocation management layer (paper Fig. 1, middle layer).

The allocation manager receives QoS-constrained function requests through the
Application-API, retrieves matching implementation variants from the case base
(using the reference engine or the hardware retrieval-unit model), checks
their feasibility against the current system load and power state, negotiates
with the calling application, deploys the agreed variant through the HW-Layer
controllers and finally hands back an allocation handle.  Repeated calls with
an unchanged request are short-circuited with bypass tokens (section 3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.bypass import BypassCache
from ..core.case_base import CaseBase, Implementation
from ..core.exceptions import AllocationError, ReproError, UnknownFunctionTypeError
from ..core.request import FunctionRequest
from ..core.retrieval import RetrievalEngine, RetrievalResult, ScoredImplementation
from ..hardware.retrieval_unit import HardwareConfig, HardwareRetrievalUnit
from ..platform.resource_state import SystemResourceState
from ..platform.repository import ConfigurationRepository
from ..platform.runtime_controller import LocalRuntimeController
from .feasibility import FeasibilityChecker, FeasibilityVerdict
from .negotiation import ApplicationPolicy, Offer, QoSNegotiator
from .records import AllocationDecision, AllocationStatistics, AllocationStatus


class AllocationManager:
    """QoS-aware function allocation over a reconfigurable multi-device platform.

    Parameters
    ----------
    case_base:
        The function-implementation tree.
    system:
        Platform resource state (run-time controllers plus power budget).
    repository:
        Optional configuration repository; when omitted, one is derived from
        the case base's deployment metadata.
    negotiator:
        QoS negotiator holding the application policies.
    n_candidates:
        How many most-similar variants are retrieved per request (the paper's
        "n most similar solutions" extension; 1 reproduces the baseline).
    similarity_threshold:
        Candidates below this global similarity are rejected before the
        feasibility check ("reject all results below a given threshold").
    retrieval_backend:
        ``"reference"`` (alias ``"naive"``) uses the floating-point engine's
        per-implementation loop; ``"vectorized"`` uses the engine's NumPy
        batch kernel (identical rankings, much faster on large case bases and
        request batches); ``"hardware"`` ranks with the cycle-accurate
        retrieval-unit model (and records its cycle counts in every decision).
    hardware_config:
        Configuration for the hardware retrieval unit when that backend is used.
    cycle_engine:
        How the ``"hardware"`` backend executes the cycle-accurate unit:
        ``"stepwise"`` walks the word image per request, ``"vectorized"``
        derives bit-identical results and exact cycle counts analytically
        (much faster at scenario scale), ``"auto"`` (default) picks the
        vectorized path unless the hardware configuration requires the
        stepwise walk (FSM tracing).
    max_negotiation_rounds:
        Upper bound on relaxation rounds per request.
    """

    def __init__(
        self,
        case_base: CaseBase,
        system: SystemResourceState,
        *,
        repository: Optional[ConfigurationRepository] = None,
        negotiator: Optional[QoSNegotiator] = None,
        n_candidates: int = 3,
        similarity_threshold: float = 0.0,
        retrieval_backend: str = "reference",
        hardware_config: Optional[HardwareConfig] = None,
        cycle_engine: str = "auto",
        max_negotiation_rounds: int = 2,
        bypass_capacity: Optional[int] = 64,
    ) -> None:
        if n_candidates <= 0:
            raise AllocationError("n_candidates must be positive")
        if not 0.0 <= similarity_threshold <= 1.0:
            raise AllocationError("similarity threshold must lie within [0, 1]")
        if retrieval_backend not in ("reference", "naive", "vectorized", "hardware"):
            raise AllocationError(
                f"unknown retrieval backend {retrieval_backend!r}; "
                f"expected 'reference', 'naive', 'vectorized' or 'hardware'"
            )
        if cycle_engine not in ("auto", "stepwise", "vectorized"):
            raise AllocationError(
                f"unknown cycle engine {cycle_engine!r}; "
                f"expected 'auto', 'stepwise' or 'vectorized'"
            )
        if max_negotiation_rounds < 1:
            raise AllocationError("max_negotiation_rounds must be at least 1")
        self.case_base = case_base
        self.system = system
        self.repository = (
            repository
            if repository is not None
            else ConfigurationRepository.from_case_base(case_base)
        )
        for controller in self.system.controllers():
            if controller.repository is None:
                controller.repository = self.repository
        self.negotiator = negotiator if negotiator is not None else QoSNegotiator()
        self.n_candidates = n_candidates
        self.similarity_threshold = similarity_threshold
        self.retrieval_backend = retrieval_backend
        self.hardware_config = hardware_config
        self.cycle_engine = cycle_engine
        self.max_negotiation_rounds = max_negotiation_rounds
        self.engine = RetrievalEngine(
            case_base,
            backend="vectorized" if retrieval_backend == "vectorized" else "naive",
        )
        self.feasibility = FeasibilityChecker(system)
        self.bypass = BypassCache(capacity=bypass_capacity)
        self.statistics = AllocationStatistics()
        self._hardware_unit: Optional[HardwareRetrievalUnit] = None
        #: handle -> (requester, type_id, implementation_id, controller)
        self._active: Dict[int, Tuple[str, int, int, LocalRuntimeController]] = {}

    # -- retrieval ------------------------------------------------------------------

    def _hardware_unit_current(self) -> HardwareRetrievalUnit:
        """The lazily built hardware unit (it refreshes itself per revision).

        Construction only widens the configured ``n_best`` to the manager's
        candidate count; case-base mutations are handled by the unit's own
        revision-keyed image cache.
        """
        if self._hardware_unit is None:
            config = self.hardware_config
            if config is None:
                config = HardwareConfig(n_best=self.n_candidates)
            elif config.n_best < self.n_candidates:
                config = replace(config, n_best=self.n_candidates)
            self._hardware_unit = HardwareRetrievalUnit(self.case_base, config=config)
        return self._hardware_unit

    def _hardware_candidates(self, request, result) -> List[ScoredImplementation]:
        """Threshold- and count-trimmed candidate list of one hardware result."""
        function_type = self.case_base.get_type(request.type_id)
        candidates = [
            ScoredImplementation(
                type_id=request.type_id,
                implementation=function_type.get(implementation_id),
                similarity=similarity,
            )
            for implementation_id, similarity in zip(
                result.ranked_ids(), result.ranked_similarities()
            )
        ]
        return [
            candidate
            for candidate in candidates
            if candidate.similarity >= self.similarity_threshold
        ][: self.n_candidates]

    def _retrieve(
        self, request: FunctionRequest
    ) -> Tuple[List[ScoredImplementation], Optional[int]]:
        """Retrieve the candidate list; returns ``(candidates, hardware_cycles)``."""
        if self.retrieval_backend == "hardware":
            unit = self._hardware_unit_current()
            result = unit.run_batch([request], engine=self.cycle_engine)[0]
            return self._hardware_candidates(request, result), result.cycles
        result = self.engine.retrieve(
            request, n=self.n_candidates, threshold=self._effective_threshold()
        )
        return list(result.ranked), None

    def _effective_threshold(self) -> Optional[float]:
        """The engine-facing threshold: ``None`` disables threshold rejection.

        Shared by :meth:`_retrieve` and :meth:`retrieve_batch` so the batched
        and sequential paths can never filter candidates differently.
        """
        return self.similarity_threshold if self.similarity_threshold > 0 else None

    def retrieve_batch(
        self,
        requests: Sequence[FunctionRequest],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List["RetrievalResult"]:
        """Pure batch retrieval (no feasibility check, negotiation or placement).

        Served by the reference engine (naive or vectorized, per the manager's
        ``retrieval_backend``); with the ``"hardware"`` backend the engine path
        is still used so the result type stays uniform -- for typed hardware
        results with cycle counts use
        :meth:`HardwareRetrievalUnit.run_batch
        <repro.hardware.retrieval_unit.HardwareRetrievalUnit.run_batch>`
        (allocation itself batches through it, see :meth:`_prefetch_hardware`).
        ``n`` defaults to the manager's ``n_candidates`` and ``threshold`` to
        its ``similarity_threshold``.
        """
        if n is None:
            n = self.n_candidates
        if threshold is None:
            threshold = self._effective_threshold()
        return self.engine.retrieve_batch(list(requests), n=n, threshold=threshold)

    def prefetch_candidates(
        self, requests: Sequence[FunctionRequest]
    ) -> Dict[int, List[ScoredImplementation]]:
        """First-round candidate lists for every batchable request, by index.

        This is the batching half of :meth:`allocate_batch`, exposed so other
        layers (e.g. the Application-API) can interleave one vectorized
        retrieval sweep with per-request allocation.  Requests that would
        raise during retrieval (unknown type, empty type, no constraints,
        zero total weight) are left out so they fall through to the
        per-request path, where :meth:`allocate` either reports its rejection
        decision (unknown type) or lets the error surface at the offending
        request, exactly as sequential calls would.  Requests holding a valid
        bypass token are left out because :meth:`allocate` would discard their
        candidates after the bypass hit (sequential allocation never retrieves
        for those either).  With the ``"hardware"`` retrieval backend the
        sweep runs through the cycle-accurate unit's batch mode (the
        manager's ``cycle_engine``).
        """
        return {
            index: candidates
            for index, (candidates, _) in self._prefetch(requests).items()
        }

    def _prefetch(
        self, requests: Sequence[FunctionRequest]
    ) -> Dict[int, Tuple[List[ScoredImplementation], Optional[int]]]:
        """Batched first-round retrieval: index -> (candidates, hardware cycles)."""
        if self.retrieval_backend == "hardware":
            return self._prefetch_hardware(requests)
        #: signature -> indices sharing it; duplicates (the repeated-request
        #: pattern the bypass cache targets) are scored only once.  Retrieval
        #: depends solely on the exact signature (type, values, weights) -- the
        #: requester only matters to the bypass cache, checked separately.
        by_signature: Dict[Tuple, List[int]] = {}
        for index, request in enumerate(requests):
            if (
                request.type_id in self.case_base
                and len(self.case_base.get_type(request.type_id)) > 0
                and len(request) > 0
                and request.total_weight() > 0
                and not self.bypass.has_valid_token(request, self.case_base)
            ):
                by_signature.setdefault(request.signature(), []).append(index)
        if not by_signature:
            return {}
        unique_indices = [indices[0] for indices in by_signature.values()]
        try:
            results = self.retrieve_batch([requests[index] for index in unique_indices])
        except ReproError:
            # A request the screen could not predict (e.g. a constrained
            # attribute missing from the bounds table) failed scoring.  Fall
            # back to per-request retrieval so earlier requests are still
            # served and the error surfaces at the offending request, exactly
            # as sequential allocate() calls would behave.  (This forfeits the
            # batch speedup for the whole call; acceptable for the degenerate
            # error case, where the sequential path raises anyway.)
            return {}
        prefetched: Dict[int, Tuple[List[ScoredImplementation], Optional[int]]] = {}
        for indices, result in zip(by_signature.values(), results):
            for index in indices:
                prefetched[index] = (list(result.ranked), None)
        return prefetched

    def _prefetch_hardware(
        self, requests: Sequence[FunctionRequest]
    ) -> Dict[int, Tuple[List[ScoredImplementation], Optional[int]]]:
        """Hardware-backend prefetch through the unit's cycle-engine batch mode.

        The screen mirrors what the sequential hardware path survives: an
        unknown type must fall through (so :meth:`allocate` reports its
        rejection decision), an unconstrained request must fall through (the
        encoder raises at that request), while empty function types and
        zero-weight requests are fine -- the hardware model scores them
        without error.  Each decision records the same cycle count the
        sequential run would.
        """
        by_signature: Dict[Tuple, List[int]] = {}
        for index, request in enumerate(requests):
            if (
                request.type_id in self.case_base
                and len(request) > 0
                and not self.bypass.has_valid_token(request, self.case_base)
            ):
                by_signature.setdefault(request.signature(), []).append(index)
        if not by_signature:
            return {}
        unit = self._hardware_unit_current()
        unique_indices = [indices[0] for indices in by_signature.values()]
        try:
            results = unit.run_batch(
                [requests[index] for index in unique_indices], engine=self.cycle_engine
            )
        except ReproError:
            # Same fallback contract as the engine path: let the sequential
            # loop surface the error at the offending request.
            return {}
        prefetched: Dict[int, Tuple[List[ScoredImplementation], Optional[int]]] = {}
        for indices, result in zip(by_signature.values(), results):
            candidates = self._hardware_candidates(requests[indices[0]], result)
            for index in indices:
                prefetched[index] = (list(candidates), result.cycles)
        return prefetched

    # -- bypass ---------------------------------------------------------------------

    def _try_bypass(self, request: FunctionRequest) -> Optional[AllocationDecision]:
        """Serve a repeated request from its bypass token if still valid."""
        token = self.bypass.lookup(request, self.case_base)
        if token is None:
            return None
        for handle, (requester, type_id, implementation_id, controller) in self._active.items():
            if (
                requester == request.requester
                and type_id == token.type_id
                and implementation_id == token.implementation_id
            ):
                decision = AllocationDecision(
                    status=AllocationStatus.ALLOCATED_VIA_BYPASS,
                    requester=request.requester,
                    type_id=type_id,
                    implementation=self.case_base.get_implementation(type_id, implementation_id),
                    device_name=controller.name,
                    similarity=token.similarity,
                    used_bypass=True,
                    reason="served from bypass token (availability check only)",
                )
                self.statistics.record(decision)
                return decision
        # Token exists but the allocation is gone: drop it and fall back to retrieval.
        self.bypass.invalidate_request(request)
        return None

    # -- public API -------------------------------------------------------------------

    def allocate(
        self,
        request: FunctionRequest,
        *,
        now_us: float = 0.0,
        _prefetched_candidates: Optional[List[ScoredImplementation]] = None,
        _prefetched_cycles: Optional[int] = None,
    ) -> AllocationDecision:
        """Serve one function request end to end.

        ``_prefetched_candidates`` (plus ``_prefetched_cycles`` for the
        hardware backend) is the internal hand-off from
        :meth:`allocate_batch`: the first negotiation round reuses the
        batch-retrieved candidate list instead of re-running retrieval (later
        relaxation rounds query the engine as usual, since relaxed requests
        are not known at batch time).
        """
        bypass_decision = self._try_bypass(request)
        if bypass_decision is not None:
            return bypass_decision

        current_request = request
        last_failure = AllocationStatus.REJECTED_NO_MATCH
        failure_reason = ""
        candidates: List[ScoredImplementation] = []

        for round_index in range(self.max_negotiation_rounds):
            try:
                if round_index == 0 and _prefetched_candidates is not None:
                    candidates, hardware_cycles = list(_prefetched_candidates), _prefetched_cycles
                else:
                    candidates, hardware_cycles = self._retrieve(current_request)
            except UnknownFunctionTypeError:
                decision = AllocationDecision(
                    status=AllocationStatus.REJECTED_UNKNOWN_TYPE,
                    requester=request.requester,
                    type_id=request.type_id,
                    reason=f"function type {request.type_id} is not in the case base",
                )
                self.statistics.record(decision)
                return decision

            if not candidates:
                last_failure = (
                    AllocationStatus.REJECTED_BELOW_THRESHOLD
                    if self.similarity_threshold > 0
                    else AllocationStatus.REJECTED_NO_MATCH
                )
                failure_reason = "no implementation variant reached the similarity threshold"
            else:
                reports = self.feasibility.rank(
                    [candidate.implementation for candidate in candidates]
                )
                offers = [
                    Offer(
                        candidate=candidate,
                        feasibility=report,
                        requires_preemption=(
                            report.verdict is FeasibilityVerdict.FEASIBLE_WITH_PREEMPTION
                        ),
                    )
                    for candidate, report in zip(candidates, reports)
                    if report.is_feasible
                ]
                if not offers:
                    last_failure = AllocationStatus.REJECTED_INFEASIBLE
                    failure_reason = "no retrieved variant is feasible on the current system load"
                else:
                    outcome = self.negotiator.negotiate(request.requester, offers)
                    if outcome.agreed and outcome.accepted is not None:
                        return self._deploy(
                            request,
                            current_request,
                            outcome.accepted,
                            candidates,
                            hardware_cycles,
                            now_us=now_us,
                        )
                    last_failure = AllocationStatus.REJECTED_BY_APPLICATION
                    failure_reason = outcome.reason

            relaxed = self.negotiator.propose_relaxation(
                request.requester, current_request, round_index
            )
            if relaxed is None:
                break
            current_request = relaxed

        decision = AllocationDecision(
            status=last_failure,
            requester=request.requester,
            type_id=request.type_id,
            candidates=candidates,
            reason=failure_reason,
        )
        self.statistics.record(decision)
        return decision

    def allocate_iter(
        self, requests: Sequence[FunctionRequest], *, now_us: float = 0.0
    ) -> Iterator[AllocationDecision]:
        """Lazily serve many requests, batching the first retrieval round.

        Retrieval depends only on the (immutable-during-the-call) case base,
        so the first-round candidate lists of all requests are computed in one
        vectorized sweep up front; feasibility, negotiation and placement then
        run per request in input order, exactly as repeated :meth:`allocate`
        calls would.  Decisions are yielded in request order as they are made,
        letting callers (e.g. the Application-API's handle registry) record
        partial progress even if a later request raises.
        """
        requests = list(requests)
        prefetched = self._prefetch(requests)
        for index, request in enumerate(requests):
            candidates, cycles = prefetched.get(index, (None, None))
            yield self.allocate(
                request,
                now_us=now_us,
                _prefetched_candidates=candidates,
                _prefetched_cycles=cycles,
            )

    def allocate_batch(
        self, requests: Sequence[FunctionRequest], *, now_us: float = 0.0
    ) -> List[AllocationDecision]:
        """Serve many requests, batching the first retrieval round.

        Eager wrapper around :meth:`allocate_iter`; decisions are returned in
        request order.
        """
        return list(self.allocate_iter(requests, now_us=now_us))

    def _deploy(
        self,
        original_request: FunctionRequest,
        served_request: FunctionRequest,
        offer: Offer,
        candidates: List[ScoredImplementation],
        hardware_cycles: Optional[int],
        *,
        now_us: float,
    ) -> AllocationDecision:
        """Place the accepted candidate and book-keep the decision."""
        controller = offer.feasibility.controller
        if controller is None:
            raise AllocationError("accepted offer has no target controller")
        implementation = offer.candidate.implementation
        preempted: List[int] = []
        if offer.requires_preemption:
            victims = controller.preempt_for(implementation)
            preempted = [victim.handle for victim in victims]
            for victim in victims:
                self._active.pop(victim.handle, None)
                self.bypass.invalidate_implementation(victim.type_id,
                                                      victim.implementation.implementation_id)
        placement = controller.place(
            offer.candidate.type_id,
            implementation,
            requester=original_request.requester,
            now_us=now_us,
        )
        self._active[placement.handle] = (
            original_request.requester,
            offer.candidate.type_id,
            implementation.implementation_id,
            controller,
        )
        self.bypass.store(
            original_request,
            self.case_base,
            implementation.implementation_id,
            offer.candidate.similarity,
        )
        if preempted:
            status = AllocationStatus.ALLOCATED_AFTER_PREEMPTION
        elif candidates and implementation.implementation_id == candidates[0].implementation_id:
            status = AllocationStatus.ALLOCATED
        else:
            status = AllocationStatus.ALLOCATED_ALTERNATIVE
        decision = AllocationDecision(
            status=status,
            requester=original_request.requester,
            type_id=offer.candidate.type_id,
            implementation=implementation,
            device_name=controller.name,
            similarity=offer.candidate.similarity,
            placement=placement,
            candidates=candidates,
            preempted_handles=preempted,
            retrieval_cycles=hardware_cycles,
        )
        self.statistics.record(decision)
        return decision

    def release(self, handle: int) -> None:
        """Release one allocation and revoke its bypass tokens."""
        try:
            requester, type_id, implementation_id, controller = self._active.pop(handle)
        except KeyError as exc:
            raise AllocationError(f"no active allocation with handle {handle}") from exc
        controller.remove(handle)
        self.bypass.invalidate_implementation(type_id, implementation_id)
        self.statistics.releases += 1

    def active_allocations(self) -> Dict[int, Tuple[str, int, int, str]]:
        """Snapshot of active allocations: handle -> (requester, type, impl, device)."""
        return {
            handle: (requester, type_id, implementation_id, controller.name)
            for handle, (requester, type_id, implementation_id, controller) in self._active.items()
        }
