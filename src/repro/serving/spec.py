"""``ServingSpec``: one schema for every way a serving engine is constructed.

Before this module, the engine-construction surface had drifted into three
near-duplicate dialects: ``ApplicationAPI.serving_engine(**overrides)`` /
``cluster_engine(devices=...)`` took keyword soup, and ``serve-trace`` /
``serve-cluster`` each re-declared (and slowly diverged on) the same argparse
plumbing.  ``ServingSpec`` collapses them: a single frozen dataclass spanning
the workload x engine x backend x shards x fleet x learning axes, with

* :meth:`ServingSpec.from_args` / :meth:`ServingSpec.add_arguments` -- the
  CLI surface (``serve-trace``, ``serve-cluster`` and ``repro serve`` all
  parse into a spec);
* :meth:`ServingSpec.serving_config` / :meth:`ServingSpec.build_engine` /
  :meth:`ServingSpec.build_fleet` -- the Python surface (what the
  ``ApplicationAPI`` factories and the HTTP daemon construct from);
* :meth:`ServingSpec.to_wire` / :meth:`ServingSpec.from_wire` (and the JSON
  text variants) -- the wire surface, version-stamped through
  :mod:`repro.api.schemas` so a daemon capture replays under the exact spec
  that served it.

Because every consumer goes through the same dataclass, the HTTP API, the
CLI and the Python API are *provably* the same surface: a field exists here
or it exists nowhere.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..api import schemas
from ..core.case_base import CaseBase
from ..core.exceptions import ReproError
from ..observability import DEFAULT_TRACE_RING, ObservabilityConfig
from ..resilience import FaultPlan

#: Spec fields whose ``ServingConfig`` counterpart is named differently.
_CONFIG_FIELD_MAP = {"shards": "shard_count"}


@dataclass(frozen=True)
class ServingSpec:
    """Declarative description of one serving setup (all axes, one place)."""

    # -- trace-source axis (ignored by the daemon, which serves sockets) ------------
    #: Named workloads to replay (empty tuple = the four example apps).
    workloads: Tuple[str, ...] = ()
    duration_ms: float = 2000.0
    #: Case-base JSON path (``None`` = workload platform base, or the paper
    #: example for request/random traces).
    case_base: Optional[str] = None
    #: Requests JSON file replayed at a fixed rate.
    requests: Optional[str] = None
    #: Replay N random case-base-matched requests instead.
    random: int = 0
    mean_interarrival_us: float = 1000.0
    seed: int = 2004
    # -- engine-topology axis -------------------------------------------------------
    #: ``False`` = single-node :class:`~repro.serving.ServingEngine`;
    #: ``True`` = :class:`~repro.serving.ClusterServingEngine` over a fleet.
    cluster: bool = False
    devices: int = 2
    software_workers: int = 1
    reconfig_us: Optional[float] = None
    # -- serving axes (mirrors :class:`~repro.serving.ServingConfig`) ---------------
    backend: str = "vectorized"
    #: Two-stage retrieval screen (``"off"`` or ``"bounds"``); bit-identical
    #: to the full scan by construction, so it is a pure performance axis.
    prefilter: str = "off"
    shards: int = 1
    max_batch: int = 32
    max_wait_us: float = 500.0
    deadline_us: Optional[float] = None
    cycle_engine: str = "auto"
    clock_mhz: float = 66.0
    n_best: int = 3
    threshold: Optional[float] = None
    degrade_to_software: bool = True
    # -- learning axis --------------------------------------------------------------
    learn: bool = False
    learning_rate: float = 0.5
    novelty_threshold: float = 0.9
    learn_capacity: int = 16
    # -- resilience axis (PR 7) -----------------------------------------------------
    #: Seeded fault-injection plan (``None`` = no faults).  A spec axis so a
    #: chaos run's capture replays -- and a crashed daemon recovers -- under
    #: the exact fault schedule that served it.
    fault_plan: Optional[FaultPlan] = None
    # -- observability axis (PR 8) --------------------------------------------------
    #: Tracing / metrics knobs.  Purely observational: no setting here may
    #: change a ranking, capture byte or journal byte (gated differentially).
    observability: ObservabilityConfig = ObservabilityConfig()

    def __post_init__(self) -> None:
        if isinstance(self.observability, Mapping):
            object.__setattr__(
                self,
                "observability",
                ObservabilityConfig.from_payload(self.observability),
            )
        if self.observability is None:
            object.__setattr__(self, "observability", ObservabilityConfig())
        if not isinstance(self.observability, ObservabilityConfig):
            raise ReproError(
                f"observability must be an ObservabilityConfig or its payload "
                f"mapping, got {type(self.observability).__name__}"
            )
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_payload(self.fault_plan)
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ReproError(
                f"fault_plan must be a FaultPlan or its payload mapping, "
                f"got {type(self.fault_plan).__name__}"
            )
        if self.backend not in ("vectorized", "naive"):
            raise ReproError(
                f"unknown backend {self.backend!r}; expected 'vectorized' or 'naive'"
            )
        if self.cycle_engine not in ("auto", "stepwise", "vectorized"):
            raise ReproError(
                f"unknown cycle engine {self.cycle_engine!r}; expected "
                f"'auto', 'stepwise' or 'vectorized'"
            )
        if self.random < 0:
            raise ReproError(f"random request count must be non-negative, got {self.random}")
        if self.devices < 0 or self.software_workers < 0:
            raise ReproError("fleet device counts must be non-negative")
        if self.cluster and self.devices + self.software_workers < 1:
            raise ReproError("a cluster spec needs at least one device")
        # The remaining numeric axes share ServingConfig's validation rules;
        # building the config surfaces any violation immediately.
        self.serving_config()

    # -- derived views ---------------------------------------------------------------

    @property
    def uses_workload_trace(self) -> bool:
        """Whether the trace source is the workload generators (not files)."""
        return not (self.requests or self.random > 0)

    def replace(self, **overrides: object) -> "ServingSpec":
        """A copy of this spec with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    def serving_config(self, *, hardware_config=None, cycle_engine: Optional[str] = None):
        """The :class:`~repro.serving.ServingConfig` this spec describes.

        ``hardware_config`` / ``cycle_engine`` carry the two runtime-only
        knobs a host (e.g. the allocation manager) may impose; they are not
        spec axes because one is a live object and the other defaults to the
        host's choice.
        """
        from .engine import ServingConfig

        return ServingConfig(
            max_batch=self.max_batch,
            max_wait_us=self.max_wait_us,
            shard_count=self.shards,
            backend=self.backend,
            prefilter=self.prefilter,
            cycle_engine=cycle_engine if cycle_engine is not None else self.cycle_engine,
            clock_mhz=self.clock_mhz,
            deadline_us=self.deadline_us,
            degrade_to_software=self.degrade_to_software,
            hardware_config=hardware_config,
            n_best=self.n_best,
            threshold=self.threshold,
            learn=self.learn,
            learning_rate=self.learning_rate,
            novelty_threshold=self.novelty_threshold,
            learn_capacity=self.learn_capacity,
            observability=self.observability,
        )

    # -- construction: case base, trace, fleet, engine -------------------------------

    def resolve_case_base(self) -> CaseBase:
        """Construct the case base this spec serves (deterministically).

        A ``case_base`` path wins; otherwise workload-trace specs get the
        platform case base the example applications request against --
        extended by the contributions of any extra named workloads (e.g.
        ``huge-casebase`` bolts its bulk-synthesized implementation library
        on) -- and request-file/random specs get the paper example.
        """
        from ..core import paper_case_base
        from ..tools import load_case_base

        if self.case_base:
            return load_case_base(self.case_base)
        if self.uses_workload_trace:
            from ..apps import build_case_base, default_workloads
            from .loadgen import resolve_workloads

            workloads = default_workloads()
            if self.workloads:
                base_names = {workload.name for workload in workloads}
                workloads += [
                    workload
                    for workload in resolve_workloads(tuple(self.workloads))
                    if workload.name not in base_names
                ]
            return build_case_base(workloads)
        return paper_case_base()

    def build_trace(self, case_base: CaseBase) -> List:
        """The replay trace this spec describes (see ``serve-trace``)."""
        from ..tools import load_requests_json
        from .loadgen import synthetic_trace, trace_from_requests, trace_from_workloads

        if self.requests:
            return trace_from_requests(
                load_requests_json(self.requests),
                interarrival_us=self.mean_interarrival_us,
            )
        if self.random > 0:
            return synthetic_trace(
                case_base,
                self.random,
                mean_interarrival_us=self.mean_interarrival_us,
                seed=self.seed,
            )
        return trace_from_workloads(
            tuple(self.workloads) or None,
            duration_us=self.duration_ms * 1000.0,
            seed=self.seed,
            # Resolve constraint names through the *served* schema: workloads
            # that extend the case base (huge-casebase) define their
            # attributes there, not in the static platform schema.
            schema=case_base.schema,
        )

    def resolve_inputs(self) -> Tuple[CaseBase, List]:
        """``(case base, trace)`` for a trace replay, with the CLI's checks."""
        if self.uses_workload_trace and self.case_base:
            raise ReproError(
                "a --case-base file needs --requests FILE or --random N "
                "(workload traces use the built-in platform case base)"
            )
        case_base = self.resolve_case_base()
        return case_base, self.build_trace(case_base)

    def build_fleet(
        self,
        case_base: CaseBase,
        *,
        hardware_config=None,
        repository=None,
    ):
        """The :class:`~repro.platform.DeviceFleet` of a cluster spec."""
        from ..platform.fleet import DeviceFleet

        return DeviceFleet.build(
            case_base,
            hardware_devices=self.devices,
            software_devices=self.software_workers,
            hardware_config=hardware_config,
            clock_mhz=self.clock_mhz,
            reconfig_us=self.reconfig_us,
            repository=repository,
        )

    def build_engine(
        self,
        case_base: Optional[CaseBase] = None,
        *,
        feasibility=None,
        fleet=None,
        hardware_config=None,
        cycle_engine: Optional[str] = None,
        repository=None,
    ):
        """Construct the serving engine (single-node or cluster) this spec names."""
        # Resolved through the package namespace (not the submodules) so
        # tests substituting repro.serving.ServingEngine see their double.
        from .. import serving as _serving

        ServingEngine = _serving.ServingEngine
        ClusterServingEngine = _serving.ClusterServingEngine

        if case_base is None:
            case_base = self.resolve_case_base()
        config = self.serving_config(
            hardware_config=hardware_config, cycle_engine=cycle_engine
        )
        if not self.cluster:
            return ServingEngine(case_base, config=config, feasibility=feasibility)
        if fleet is None:
            fleet = self.build_fleet(
                case_base,
                hardware_config=config.hardware_config,
                repository=repository,
            )
        fault_injector = None
        if self.fault_plan is not None and len(self.fault_plan):
            from ..resilience import FaultInjector

            fault_injector = FaultInjector(self.fault_plan)
        return ClusterServingEngine(
            case_base,
            fleet,
            config=config,
            feasibility=feasibility,
            fault_injector=fault_injector,
        )

    # -- CLI surface -----------------------------------------------------------------

    @staticmethod
    def add_trace_arguments(sub: argparse.ArgumentParser) -> None:
        """Trace-source options shared by ``serve-trace`` / ``serve-cluster``."""
        sub.add_argument("--workload", action="append", default=[],
                         help="application workload to replay (repeatable; default: "
                              "the four example applications; 'heavy-traffic' adds "
                              "the synthetic high-rate mix, 'fleet-failover' the "
                              "phased burst bracketing a staggered device outage, "
                              "'huge-casebase' a bulk-synthesized 100k-implementation "
                              "library plus traffic against it)")
        sub.add_argument("--duration-ms", type=float, default=2000.0,
                         help="simulated duration of the workload trace (default 2000)")
        sub.add_argument("--requests", help="JSON requests file replayed at a fixed rate")
        sub.add_argument("--random", type=int, default=0, metavar="N",
                         help="replay N random case-base-matched requests instead")
        sub.add_argument("--mean-interarrival-us", type=float, default=1000.0,
                         help="mean request inter-arrival time for --random (Poisson) "
                              "and --requests (fixed) traces (default 1000)")

    @staticmethod
    def add_serving_arguments(sub: argparse.ArgumentParser) -> None:
        """Serving tunables shared by every serving front-end (CLI side)."""
        sub.add_argument("--case-base", help="case-base JSON to serve (defaults to "
                         "the built-in platform case base for workload traffic, "
                         "the paper example otherwise)")
        sub.add_argument("--seed", type=int, default=2004)
        sub.add_argument("--shards", type=int, default=1,
                         help="number of case-base worker shards (default 1)")
        sub.add_argument("--prefilter", choices=["off", "bounds"], default="off",
                         help="two-stage exact retrieval: screen implementation "
                              "blocks with a similarity upper bound before exact "
                              "re-ranking (bit-identical results; pays off on "
                              "huge case bases)")
        sub.add_argument("--max-batch", type=int, default=32,
                         help="micro-batch size bound (1 = one-at-a-time serving)")
        sub.add_argument("--max-wait-us", type=float, default=500.0,
                         help="longest a batch may wait for company (default 500)")
        sub.add_argument("--deadline-us", type=float, default=None,
                         help="per-request completion deadline enforced by admission "
                              "control (default: no deadline)")
        sub.add_argument("--cycle-engine", choices=["auto", "stepwise", "vectorized"],
                         default="auto",
                         help="cycle engine behind the admission controller's exact "
                              "service-time model")
        sub.add_argument("--clock-mhz", type=float, default=66.0)
        sub.add_argument("--n-best", type=int, default=3,
                         help="ranking depth delivered per request (default 3)")
        sub.add_argument("--learn", action="store_true",
                         help="online CBR learning: feed served outcomes back "
                              "through revise + retain between micro-batches "
                              "(the case base evolves mid-stream; incremental "
                              "delta propagation keeps all caches patched)")
        sub.add_argument("--learning-rate", type=float, default=0.5,
                         help="revise-step exponential smoothing factor (default 0.5)")
        sub.add_argument("--novelty-threshold", type=float, default=0.9,
                         help="retain a new case when the best stored similarity "
                              "falls below this (default 0.9)")
        sub.add_argument("--learn-capacity", type=int, default=16,
                         help="per-type implementation capacity for retained "
                              "cases (default 16)")
        sub.add_argument("--fault-plan", metavar="FILE", default=None,
                         help="JSON fault-injection plan (seeded worker / "
                              "stream / connection faults) applied to the "
                              "run -- see repro.resilience.FaultPlan")
        sub.add_argument("--trace-sample-rate", type=float, default=1.0,
                         help="fraction of requests traced end-to-end, chosen "
                              "deterministically per request index (default 1.0)")
        sub.add_argument("--trace-ring", type=int, default=DEFAULT_TRACE_RING,
                         help="completed traces kept in the in-memory ring "
                              f"buffer (default {DEFAULT_TRACE_RING})")
        sub.add_argument("--no-observability", action="store_true",
                         help="disable the metrics registry and tracer entirely "
                              "(observability is purely observational; results "
                              "are bit-identical either way)")

    @staticmethod
    def add_cluster_arguments(sub: argparse.ArgumentParser) -> None:
        """Fleet-topology options (``serve-cluster`` and ``repro serve``)."""
        sub.add_argument("--devices", type=int, default=2,
                         help="FPGA devices each hosting one hardware retrieval "
                              "unit (default 2)")
        sub.add_argument("--software-workers", type=int, default=1,
                         help="processors each running the software retrieval "
                              "routine (default 1)")
        sub.add_argument("--reconfig-us", type=float, default=None,
                         help="fixed per-sync image reconfiguration latency "
                              "(default: derived from the streamed bytes through "
                              "each device's configuration-port bandwidth)")

    @classmethod
    def from_args(
        cls, args: argparse.Namespace, *, cluster: Optional[bool] = None
    ) -> "ServingSpec":
        """Build a spec from a parsed serve-* argument namespace.

        Missing attributes fall back to field defaults, so one ``from_args``
        serves every front-end: ``serve-trace`` (no fleet args),
        ``serve-cluster`` (fleet args, ``cluster=True``) and ``repro serve``
        (fleet args plus a ``--cluster`` flag, no trace args).  A CLI
        ``--engine compare`` request maps onto the vectorized backend; the
        comparison logic itself stays in the CLI.
        """
        defaults = cls()
        engine = getattr(args, "engine", "vectorized")
        backend = "naive" if engine == "naive" else "vectorized"
        if cluster is None:
            cluster = bool(getattr(args, "cluster", False))
        return cls(
            workloads=tuple(getattr(args, "workload", None) or ()),
            duration_ms=getattr(args, "duration_ms", defaults.duration_ms),
            case_base=getattr(args, "case_base", None),
            requests=getattr(args, "requests", None),
            random=getattr(args, "random", defaults.random),
            mean_interarrival_us=getattr(
                args, "mean_interarrival_us", defaults.mean_interarrival_us
            ),
            seed=getattr(args, "seed", defaults.seed),
            cluster=cluster,
            devices=getattr(args, "devices", defaults.devices),
            software_workers=getattr(
                args, "software_workers", defaults.software_workers
            ),
            reconfig_us=getattr(args, "reconfig_us", None),
            backend=backend,
            prefilter=getattr(args, "prefilter", defaults.prefilter),
            shards=getattr(args, "shards", defaults.shards),
            max_batch=getattr(args, "max_batch", defaults.max_batch),
            max_wait_us=getattr(args, "max_wait_us", defaults.max_wait_us),
            deadline_us=getattr(args, "deadline_us", None),
            cycle_engine=getattr(args, "cycle_engine", defaults.cycle_engine),
            clock_mhz=getattr(args, "clock_mhz", defaults.clock_mhz),
            n_best=getattr(args, "n_best", defaults.n_best),
            learn=getattr(args, "learn", defaults.learn),
            learning_rate=getattr(args, "learning_rate", defaults.learning_rate),
            novelty_threshold=getattr(
                args, "novelty_threshold", defaults.novelty_threshold
            ),
            learn_capacity=getattr(args, "learn_capacity", defaults.learn_capacity),
            fault_plan=(
                FaultPlan.load(args.fault_plan)
                if getattr(args, "fault_plan", None)
                else None
            ),
            observability=ObservabilityConfig(
                enabled=not getattr(args, "no_observability", False),
                trace_sample_rate=getattr(args, "trace_sample_rate", 1.0),
                trace_ring=getattr(args, "trace_ring", DEFAULT_TRACE_RING),
            ),
        )

    # -- wire surface ----------------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """The versioned wire form (embedded in captures, ``GET /capture``)."""
        payload = dataclasses.asdict(self)
        payload["workloads"] = list(self.workloads)
        payload["fault_plan"] = (
            self.fault_plan.to_payload() if self.fault_plan is not None else None
        )
        payload["observability"] = dataclasses.asdict(self.observability)
        return schemas.attach_envelope("serving-spec", payload)

    def spec_hash(self) -> str:
        """A short stable digest of the wire form (structured-log friendly)."""
        import hashlib
        import json

        payload = {
            key: value
            for key, value in self.to_wire().items()
            if key not in ("kind", "schema_version")
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_wire(cls, payload: Mapping) -> "ServingSpec":
        """Rebuild a spec from :meth:`to_wire` output (version-checked)."""
        schemas.check_envelope(payload, kind="serving-spec")
        # Specs written before the multi-process execution tier was removed
        # carry ``execution``/``workers``; inline values describe exactly what
        # is served today.  A process-tier spec would otherwise serve inline
        # without a word, so it is refused.
        execution = payload.get("execution", "inline")
        workers = payload.get("workers", 0)
        if execution != "inline" or workers != 0:
            raise schemas.SchemaError(
                f"serving-spec asks for the removed process execution tier "
                f"(execution={execution!r}, workers={workers!r}); shards are "
                f"evaluated in-process only, so drop both keys"
            )
        valid = {field.name for field in dataclasses.fields(cls)}
        kwargs = {
            name: value for name, value in payload.items() if name in valid
        }
        if "workloads" in kwargs:
            kwargs["workloads"] = tuple(kwargs["workloads"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise schemas.SchemaError(f"malformed serving-spec document: {exc}") from exc

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Versioned JSON text of this spec."""
        return schemas.dumps(self.to_wire(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServingSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        payload = schemas.loads(text)
        if not isinstance(payload, Mapping):
            raise schemas.SchemaError("a serving-spec document must be a JSON object")
        return cls.from_wire(payload)

