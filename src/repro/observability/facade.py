"""The per-engine observability hub: one registry, one trace ring.

:class:`Observability` is what every instrumentation point in the serving
stack talks to.  A :class:`~repro.serving.engine.ServingEngine` owns exactly
one (built from its config's :class:`ObservabilityConfig` axis) and hands it
to the session, the admission router and the daemon.

The hub keeps a *current micro-batch trace* while a batch is in flight, so
components deep in the pipeline (router, fleet sync) can append
spans without threading a handle through every call signature.  Serving is
single-threaded per engine -- the daemon processes batches on its event
loop, replays on one thread -- so a plain attribute is sufficient and,
critically, deterministic.

Everything here is observational: nothing in this module feeds back into
scheduling, admission, routing or journaling, which is what keeps
instrumented runs bit-identical to uninstrumented ones.
"""

from __future__ import annotations

from typing import Optional

from . import catalog
from .config import ObservabilityConfig
from .registry import MetricsRegistry
from .tracing import Span, Trace, TraceStore, batch_trace_id, sampled, trace_id_for

__all__ = ["Observability"]

#: Admission verdict labels derived from terminal statuses.
_VERDICTS = {
    "served_hardware": "admit-hardware",
    "served_software": "degrade-software",
    "rejected_deadline": "reject-deadline",
    "failed": "screen-failed",
}


class Observability:
    """Registry + tracer bundle configured by one :class:`ObservabilityConfig`."""

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config or ObservabilityConfig()
        self.registry = MetricsRegistry()
        self.store = TraceStore(self.config.trace_ring)
        self.metrics_enabled = bool(self.config.enabled)
        self.trace_enabled = (
            bool(self.config.enabled) and self.config.trace_sample_rate > 0.0
        )
        self._batch_trace: Optional[Trace] = None
        self._batch_root: Optional[Span] = None
        self._batch_close_us = 0.0
        self._traces_sampled = (
            catalog.traces_sampled(self.registry).child()
            if self.metrics_enabled
            else None
        )

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(ObservabilityConfig(enabled=False))

    # ------------------------------------------------------------------
    # Sampling

    def sampled(self, index: int) -> bool:
        return self.trace_enabled and sampled(index, self.config.trace_sample_rate)

    # ------------------------------------------------------------------
    # Micro-batch trace context

    def begin_batch(
        self, index: int, open_us: float, close_us: float, *, size: int
    ) -> Optional[Trace]:
        """Open the batch-scoped trace components append spans into."""
        if not self.trace_enabled:
            return None
        trace = Trace(batch_trace_id(index))
        self._batch_root = trace.span(
            "batch", start_us=open_us, end_us=close_us, batch=index, size=size
        )
        self._batch_trace = trace
        self._batch_close_us = close_us
        return trace

    def batch_span(
        self,
        name: str,
        *,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
        **attributes: object,
    ) -> Optional[Span]:
        """Append a span to the in-flight batch trace (no-op outside one)."""
        trace = self._batch_trace
        if trace is None:
            return None
        start = self._batch_close_us if start_us is None else start_us
        return trace.span(
            name,
            start_us=start,
            end_us=end_us,
            parent=self._batch_root,
            **attributes,
        )

    def end_batch(self) -> None:
        if self._batch_trace is not None:
            self.store.add(self._batch_trace)
        self._batch_trace = None
        self._batch_root = None

    # ------------------------------------------------------------------
    # Request traces

    def record_request(self, record) -> None:
        """Ring in the span tree for one terminal :class:`ServedRequest`.

        The tree itself is built lazily on first read: the serving hot path
        pays one dict insert, and because every timestamp is derived from
        the record's (already-terminal) virtual-time fields, deferral never
        changes what materialises -- replaying the same capture reproduces
        the same tree.
        """
        if not self.sampled(record.index):
            return
        self.store.add_deferred(
            trace_id_for(record.index),
            lambda: self._build_request_trace(record),
        )
        if self._traces_sampled is not None:
            self._traces_sampled.inc()

    def _build_request_trace(self, record) -> Trace:
        status = getattr(record.status, "value", str(record.status))
        arrival = record.arrival_us
        dispatch = arrival + record.wait_us
        service_end = dispatch + record.queue_us + record.service_us
        trace = Trace(trace_id_for(record.index))
        root = trace.span(
            "request",
            start_us=arrival,
            end_us=max(dispatch, service_end),
            index=record.index,
            status=status,
            batch=record.batch_index,
            worker=record.worker or None,
            reason=record.reason or None,
        )
        trace.span("queue", start_us=arrival, end_us=dispatch, parent=root)
        trace.span(
            "admission",
            start_us=dispatch,
            parent=root,
            verdict=_VERDICTS.get(status, status),
            wait_us=record.wait_us,
            queue_us=record.queue_us,
            service_us=record.service_us,
            latency_us=record.latency_us,
        )
        if record.queue_us or record.service_us:
            trace.span(
                "server-queue",
                start_us=dispatch,
                end_us=dispatch + record.queue_us,
                parent=root,
            )
            trace.span(
                "retrieval",
                start_us=dispatch + record.queue_us,
                end_us=service_end,
                parent=root,
                cycles=record.cycles or None,
                worker=record.worker or None,
            )
        return trace

    def annotate_trace(self, trace_id: str, **annotations: object) -> bool:
        """Attach wall-clock context to a stored trace (identity-exempt)."""
        return self.store.annotate(trace_id, **annotations)
