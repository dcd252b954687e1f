"""QoS-aware micro-batched request serving (the ROADMAP's heavy-traffic layer).

The subsystem turns a timestamped stream of function requests into batched
work for the vectorized retrieval backend (PR 1) and the cycle-accurate
engines (PR 2):

* :mod:`repro.serving.loadgen` -- trace-replay load generation from the
  example application workloads, synthetic Poisson mixes and request files;
* :mod:`repro.serving.scheduler` -- the ``max_batch``/``max_wait_us``
  micro-batching policy;
* :mod:`repro.serving.admission` -- :class:`AdmissionController`, the one
  admission gate: deadline-budget routing driven by exact cycle counts
  (admit / degrade-to-software / reject / requeue) across a
  :class:`~repro.platform.DeviceFleet` of reconfigurable devices -- the
  single node is its one-hardware/one-software topology -- plus worker
  health and allocation-layer feasibility screening;
* :mod:`repro.serving.metrics` -- throughput, latency percentiles,
  batch-shape histograms and rejection rates;
* :mod:`repro.serving.engine` -- :class:`ServingEngine`, the facade gluing
  the pipeline together (single-node, or a cluster when given a fleet) over
  one :class:`~repro.core.retrieval.RetrievalEngine`;
* :mod:`repro.serving.spec` -- :class:`ServingSpec`, the one declarative
  schema every engine-construction surface (Python API, CLI, HTTP daemon)
  builds from;
* :mod:`repro.serving.daemon` -- :class:`ServingDaemon`, the ``repro serve``
  asyncio HTTP/JSON service, plus the capture/replay differential helpers;
  with ``--journal`` it keeps a durable, crash-recoverable delta journal
  (:mod:`repro.core.journal`) and recovers bit-identically on restart;
* :mod:`repro.resilience` (re-exported here) -- seeded fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`) and the shared
  :class:`RetryPolicy`; the admission router tracks per-worker health and
  adds the ``requeue`` admission rung under injected faults;
* :mod:`repro.observability` (re-exported here) -- the span tracer, live
  metrics registry and trace ring behind ``GET /metrics`` (Prometheus text),
  ``GET /trace/<id>`` and ``repro trace``; configured per spec through the
  :class:`~repro.observability.ObservabilityConfig` axis and guaranteed
  never to change a served byte.
"""

from ..observability import Observability, ObservabilityConfig
from ..resilience import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from .admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionVerdict,
    WorkerHealth,
)
from .daemon import DaemonThread, ServingDaemon, replay_capture, run_daemon
from .engine import (
    OnlineLearner,
    ServedRequest,
    ServingConfig,
    ServingEngine,
    ServingReport,
    ServingSession,
    ServingStatus,
)
from .spec import ServingSpec
from .loadgen import (
    TimedRequest,
    WORKLOAD_FACTORIES,
    resolve_workloads,
    synthetic_trace,
    trace_from_requests,
    trace_from_workloads,
)
from .metrics import MetricsCollector, percentile, percentiles
from .scheduler import MicroBatchScheduler, ScheduledBatch

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionVerdict",
    "DaemonThread",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MetricsCollector",
    "MicroBatchScheduler",
    "Observability",
    "ObservabilityConfig",
    "OnlineLearner",
    "RetryPolicy",
    "ScheduledBatch",
    "ServedRequest",
    "ServingConfig",
    "ServingDaemon",
    "ServingEngine",
    "ServingReport",
    "ServingSession",
    "ServingSpec",
    "ServingStatus",
    "TimedRequest",
    "WorkerHealth",
    "WORKLOAD_FACTORIES",
    "percentile",
    "percentiles",
    "replay_capture",
    "resolve_workloads",
    "run_daemon",
    "synthetic_trace",
    "trace_from_requests",
    "trace_from_workloads",
]
