"""Application-API: the interface applications use (paper Fig. 1, top layer).

"The application level is separated from the lower system levels by an
Application-API which offers services for communication, sub-function calls
and quality of service (QoS) negotiation."  The facade below wraps the
allocation manager into exactly those three services: registering an
application (with its negotiation policy), calling a function under QoS
constraints, releasing it again and exchanging data with a placed function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..allocation.manager import AllocationManager
from ..allocation.negotiation import ApplicationPolicy
from ..allocation.records import AllocationDecision
from ..core.attributes import AttributeSchema, Number
from ..core.exceptions import AllocationError, RequestError
from ..core.request import FunctionRequest, RequestBuilder
from ..core.retrieval import RetrievalResult

#: One entry of a batch call: ``(type_id, constraints)`` or
#: ``(type_id, constraints, weights)`` with the same ``constraints`` /
#: ``weights`` shapes accepted by :meth:`ApplicationAPI.build_request`.
BatchQuery = Union[
    Tuple[int, Union[Dict[str, Union[Number, str]], Sequence[Tuple[int, Number]]]],
    Tuple[
        int,
        Union[Dict[str, Union[Number, str]], Sequence[Tuple[int, Number]]],
        Optional[Dict[str, float]],
    ],
]


@dataclass
class FunctionHandle:
    """Handle an application holds for one allocated function."""

    requester: str
    type_id: int
    decision: AllocationDecision
    released: bool = False
    #: Total payload bytes exchanged through :meth:`ApplicationAPI.transfer`.
    bytes_transferred: int = 0

    @property
    def platform_handle(self) -> Optional[int]:
        """The platform-level task handle (``None`` for bypass-served calls)."""
        return self.decision.handle

    @property
    def device_name(self) -> Optional[str]:
        """Device the function runs on."""
        return self.decision.device_name


class ApplicationAPI:
    """Facade through which applications request, use and release functions."""

    def __init__(self, manager: AllocationManager, schema: Optional[AttributeSchema] = None) -> None:
        self.manager = manager
        self.schema = schema if schema is not None else manager.case_base.schema
        self._applications: Dict[str, ApplicationPolicy] = {}
        self._handles: List[FunctionHandle] = []

    # -- registration ------------------------------------------------------------

    def register_application(
        self, name: str, policy: Optional[ApplicationPolicy] = None
    ) -> None:
        """Register an application and (optionally) its negotiation policy."""
        if not name:
            raise AllocationError("application name must not be empty")
        policy = policy if policy is not None else ApplicationPolicy()
        self._applications[name] = policy
        self.manager.negotiator.register_policy(name, policy)

    def applications(self) -> List[str]:
        """Names of all registered applications."""
        return sorted(self._applications)

    # -- request construction -----------------------------------------------------

    def build_request(
        self,
        application: str,
        type_id: int,
        constraints: Union[
            Dict[str, Union[Number, str]], Sequence[Tuple[int, Number]], None
        ] = None,
        weights: Optional[Dict[str, float]] = None,
    ) -> FunctionRequest:
        """Build a :class:`FunctionRequest` from named or ID-keyed constraints.

        ``constraints`` may be a mapping of attribute *names* (resolved through
        the schema, symbols allowed) or a sequence of ``(attribute_id, value)``
        pairs.  ``weights`` optionally assigns per-name weights (defaults to
        equal weighting).
        """
        if application not in self._applications:
            raise AllocationError(f"application {application!r} is not registered")
        if constraints is None:
            raise RequestError("a QoS function call needs at least one constraint")
        if isinstance(constraints, dict):
            builder = RequestBuilder(self.schema, type_id, requester=application)
            for name, value in constraints.items():
                weight = (weights or {}).get(name, 1.0)
                builder.constrain(name, value, weight)
            return builder.build()
        if weights:
            raise RequestError(
                "per-name weights require name-keyed constraints; with "
                "(attribute_id, value) pairs use (attribute_id, value, weight) "
                "triples instead"
            )
        return FunctionRequest(type_id, list(constraints), requester=application)

    # -- the three Application-API services -----------------------------------------

    def call_function(
        self,
        application: str,
        type_id: int,
        constraints: Union[
            Dict[str, Union[Number, str]], Sequence[Tuple[int, Number]], None
        ] = None,
        *,
        weights: Optional[Dict[str, float]] = None,
        now_us: float = 0.0,
    ) -> FunctionHandle:
        """Sub-function call with QoS negotiation; always returns a handle.

        The handle's ``decision`` records whether the call was served (and
        how) or rejected; applications inspect ``decision.succeeded``.
        """
        request = self.build_request(application, type_id, constraints, weights)
        decision = self.manager.allocate(request, now_us=now_us)
        handle = FunctionHandle(requester=application, type_id=type_id, decision=decision)
        self._handles.append(handle)
        return handle

    def _build_batch_requests(
        self, application: str, queries: Sequence[BatchQuery]
    ) -> List[FunctionRequest]:
        """Validate and build all requests up front (all-or-nothing).

        Batch calls are atomic with respect to malformed input: if any query
        is structurally invalid, the whole batch is rejected before anything
        is retrieved or allocated (unlike a loop of single calls, which would
        serve the earlier queries first).  Queries may be tuples or lists --
        JSON deserialisation produces lists.
        """
        requests = []
        for query in queries:
            if (
                isinstance(query, (str, bytes, dict))
                or not isinstance(query, (tuple, list))
                or not 2 <= len(query) <= 3
            ):
                raise RequestError(
                    f"batch query {query!r} must be (type_id, constraints) or "
                    f"(type_id, constraints, weights)"
                )
            type_id, constraints = query[0], query[1]
            weights = query[2] if len(query) == 3 else None
            requests.append(
                self.build_request(application, type_id, constraints, weights)
            )
        return requests

    def retrieve_batch(
        self,
        application: str,
        queries: Sequence[BatchQuery],
        *,
        n: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> List[RetrievalResult]:
        """Batch QoS-candidate lookup without allocating anything.

        This is the negotiation-support half of the QoS service: an
        application about to issue several sub-function calls (or evaluating a
        reconfiguration decision) can rank all candidate implementations in a
        single vectorized sweep and inspect similarities before committing to
        :meth:`call_function` / :meth:`call_functions`.  Results are returned
        in query order.
        """
        requests = self._build_batch_requests(application, queries)
        return self.manager.retrieve_batch(requests, n=n, threshold=threshold)

    def call_functions(
        self,
        application: str,
        queries: Sequence[BatchQuery],
        *,
        now_us: float = 0.0,
    ) -> List[FunctionHandle]:
        """Batch sub-function call: negotiate and allocate many requests at once.

        The first retrieval round of every request is evaluated in one batch
        through the manager (vectorized when the manager's engine is); the
        per-request negotiation and placement semantics are identical to
        repeated :meth:`call_function` calls, and one handle per query is
        returned in query order.  Input validation is all-or-nothing: a
        structurally malformed query rejects the whole batch before anything
        is allocated (see :meth:`_build_batch_requests`).  Handles are
        registered as each allocation completes, so if a later request raises
        during allocation, the handles of already-served requests remain
        available through :meth:`handles` for release.
        """
        requests = self._build_batch_requests(application, queries)
        handles = []
        for request, decision in zip(
            requests, self.manager.allocate_iter(requests, now_us=now_us)
        ):
            handle = FunctionHandle(
                requester=application, type_id=request.type_id, decision=decision
            )
            self._handles.append(handle)
            handles.append(handle)
        return handles

    def release(self, handle: FunctionHandle) -> None:
        """Release an allocated function.

        Releasing a handle whose placement was preempted in the meantime is a
        no-op: the platform resources are already gone and the application is
        simply acknowledging that.
        """
        if handle.released:
            raise AllocationError("function handle was already released")
        if handle.decision.succeeded and handle.platform_handle is not None:
            still_active = handle.platform_handle in self.manager.active_allocations()
            if not handle.decision.used_bypass and still_active:
                self.manager.release(handle.platform_handle)
        handle.released = True

    def transfer(self, handle: FunctionHandle, payload_bytes: int) -> int:
        """Exchange data with a placed function (communication service)."""
        if handle.released:
            raise AllocationError("cannot transfer data through a released handle")
        if not handle.decision.succeeded:
            raise AllocationError("cannot transfer data: the function was not allocated")
        if payload_bytes < 0:
            raise AllocationError("payload size must be non-negative")
        handle.bytes_transferred += payload_bytes
        return handle.bytes_transferred

    # -- serving ----------------------------------------------------------------------

    def serving_engine(self, spec=None):
        """A :class:`~repro.serving.ServingEngine` over the manager's case base.

        This is the streaming complement of :meth:`call_functions`: instead of
        allocating a fixed batch, the returned engine replays timestamped
        request traces through the micro-batching scheduler, cycle-exact
        admission control and sharded retrieval -- sharing the manager's case
        base and its :class:`~repro.allocation.feasibility.FeasibilityChecker`
        (so infeasibility rejections agree with allocation decisions).

        Pass a :class:`~repro.serving.ServingSpec` describing the engine,
        e.g. ``api.serving_engine(ServingSpec(shards=4, deadline_us=500.0))``;
        ``ServingSpec(learn=True)`` enables online CBR learning -- served
        outcomes are fed back through the revise/retain cycle between
        micro-batches, mutating the manager's case base mid-stream while the
        delta-propagation subsystem keeps every retrieval cache patched
        incrementally.  A spec whose ``cycle_engine`` is ``"auto"`` inherits
        the manager's choice; the manager's hardware configuration always
        applies (it is a live object, not a spec axis).  A spec with
        ``cluster=True`` builds a fleet-routed engine, making this the single
        construction entry point.

        The PR 6 keyword-override shim (``serving_engine(shard_count=4)``)
        has been removed; a spec is now the only construction form.
        """
        return self._build_serving_engine("serving_engine", "shards=4", spec)

    def cluster_engine(self, spec=None, *, fleet=None):
        """A cluster :class:`~repro.serving.ServingEngine` over a device fleet.

        The cluster-scale complement of :meth:`serving_engine`: traces are
        replayed through the same micro-batching, screening and sharded
        retrieval, but admission routes each request across a
        :class:`~repro.platform.DeviceFleet` of ``spec.devices`` FPGA-hosted
        hardware retrieval units plus ``spec.software_workers``
        processor-hosted software units (pass an assembled ``fleet`` to
        override the topology -- a live object, so it stays a keyword even in
        spec-first calls).  The fleet shares the manager's case base,
        hardware configuration and feasibility checker, so routing
        decisions, service times and infeasibility rejections agree with the
        single-node engine; online learning (``ServingSpec(learn=True)``)
        propagates delta windows to every device's cached image between
        micro-batches, with the modelled reconfiguration streams
        (``spec.reconfig_us`` overrides the bandwidth-derived latency)
        making devices briefly unavailable.  A spec with ``cluster=False``
        is coerced to ``cluster=True`` here.

        The PR 6 keyword-override shim (``cluster_engine(devices=4)``) has
        been removed; a spec is now the only construction form.
        """
        return self._build_serving_engine(
            "cluster_engine", "devices=4", spec, cluster=True, fleet=fleet
        )

    def _build_serving_engine(
        self, method: str, example: str, spec, *, cluster: bool = False, fleet=None
    ):
        """Validate ``spec`` for ``method`` and build its engine over the
        manager's case base, feasibility checker, hardware configuration and
        repository; an ``"auto"`` cycle engine inherits the manager's choice."""
        from ..serving.spec import ServingSpec

        if spec is None:
            raise RequestError(
                f"{method} requires a ServingSpec (the legacy keyword-"
                "override form was removed); e.g. "
                f"api.{method}(ServingSpec({example}, learn=True))"
            )
        if not isinstance(spec, ServingSpec):
            raise RequestError(
                f"{method} expects a ServingSpec, got {type(spec).__name__}"
            )
        if cluster and not spec.cluster:
            spec = spec.replace(cluster=True)
        cycle_engine = (
            spec.cycle_engine
            if spec.cycle_engine != "auto"
            else self.manager.cycle_engine
        )
        return spec.build_engine(
            self.manager.case_base,
            feasibility=self.manager.feasibility,
            fleet=fleet,
            hardware_config=self.manager.hardware_config or None,
            cycle_engine=cycle_engine,
            repository=self.manager.repository,
        )

    # -- introspection ----------------------------------------------------------------

    def handles(self, application: Optional[str] = None) -> List[FunctionHandle]:
        """All handles issued so far (optionally filtered by application)."""
        if application is None:
            return list(self._handles)
        return [handle for handle in self._handles if handle.requester == application]
