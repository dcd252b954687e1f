"""Span-based tracing stamped in virtual time.

A :class:`Trace` is a tree of :class:`Span` nodes with explicit parent
links.  Every timestamp is *virtual* -- the deterministic microsecond
clock the serving engines already run on -- so the spans a replay produces
are a pure function of the request trace and the spec: replaying the same
capture twice yields identical span trees, and the differential suites can
compare them bit-for-bit.  Wall-clock measurements (HTTP round-trip time)
ride along as *annotations*, which are explicitly
excluded from :meth:`Span.identity` so they never participate in equality.

Trace ids are deterministic too: request ``index`` -> ``req-00000042``
(:func:`trace_id_for`), micro-batch ``index`` -> ``batch-00000007``.
Sampling (:func:`sampled`) hashes the request index through a fixed
64-bit mixer, so a given ``trace_sample_rate`` admits the same subset of
requests on every run and on every replica.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import ReproError

__all__ = [
    "Span",
    "Trace",
    "TraceStore",
    "trace_id_for",
    "batch_trace_id",
    "sampled",
]


def trace_id_for(index: int) -> str:
    """The deterministic trace id of request ``index`` (absolute frame)."""
    return f"req-{int(index):08d}"


def batch_trace_id(index: int) -> str:
    """The deterministic trace id of micro-batch ``index``."""
    return f"batch-{int(index):08d}"


def sampled(index: int, rate: float) -> bool:
    """Deterministic sampling decision for request ``index`` at ``rate``."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    # splitmix64 finalizer: uniform in [0, 1) and identical everywhere.
    x = (int(index) + 1) * 0x9E3779B97F4A7C15 % (1 << 64)
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 % (1 << 64)
    x ^= x >> 27
    x = x * 0x94D049BB133111EB % (1 << 64)
    x ^= x >> 31
    return (x >> 11) / float(1 << 53) < rate


@dataclass(slots=True)
class Span:
    """One timed operation inside a trace.

    ``attributes`` are part of the span's identity (virtual, deterministic);
    ``annotations`` are advisory wall-clock context and are excluded from
    :meth:`identity` and therefore from every bit-identity comparison.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_us: float
    end_us: float
    attributes: Dict[str, object] = field(default_factory=dict)
    annotations: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def identity(self) -> Tuple:
        """The deterministic portion of the span (annotations excluded)."""
        return (
            self.span_id,
            self.parent_id,
            self.name,
            self.start_us,
            self.end_us,
            json.dumps(self.attributes, sort_keys=True, default=str),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
            "attributes": dict(self.attributes),
            "annotations": dict(self.annotations),
        }


class Trace:
    """A tree of spans sharing one trace id.

    Span ids are sequential within the trace, so the id assignment itself
    is deterministic given a deterministic instrumentation order.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []

    def span(
        self,
        name: str,
        *,
        start_us: float,
        end_us: Optional[float] = None,
        parent: Optional[Span] = None,
        annotations: Optional[Dict[str, object]] = None,
        **attributes: object,
    ) -> Span:
        """Record a finished span (point span when ``end_us`` is omitted)."""
        if attributes:
            attributes = {k: v for k, v in attributes.items() if v is not None}
        node = Span(
            span_id=len(self.spans),
            parent_id=None if parent is None else parent.span_id,
            name=name,
            start_us=float(start_us),
            end_us=float(start_us if end_us is None else end_us),
            attributes=attributes,
            annotations=dict(annotations) if annotations else {},
        )
        self.spans.append(node)
        return node

    @property
    def root(self) -> Optional[Span]:
        for node in self.spans:
            if node.parent_id is None:
                return node
        return None

    def annotate(self, **annotations: object) -> None:
        """Attach wall-clock context to the root span (identity-exempt)."""
        node = self.root
        if node is not None:
            node.annotations.update(annotations)

    def children_of(self, span: Optional[Span]) -> List[Span]:
        parent_id = None if span is None else span.span_id
        matched = [node for node in self.spans if node.parent_id == parent_id]
        return sorted(matched, key=lambda node: (node.start_us, node.span_id))

    def identity(self) -> Tuple:
        """The deterministic portion of the whole tree."""
        return (self.trace_id, tuple(node.identity() for node in self.spans))

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "spans": [node.to_dict() for node in self.spans],
        }

    def summary(self) -> Dict[str, object]:
        node = self.root
        out: Dict[str, object] = {
            "trace_id": self.trace_id,
            "spans": len(self.spans),
        }
        if node is not None:
            out.update(
                name=node.name,
                start_us=node.start_us,
                duration_us=node.duration_us,
            )
            status = node.attributes.get("status")
            if status is not None:
                out["status"] = status
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Trace":
        trace = cls(str(payload["trace_id"]))
        for entry in payload.get("spans", ()):
            trace.spans.append(
                Span(
                    span_id=int(entry["span_id"]),
                    parent_id=(
                        None if entry.get("parent_id") is None
                        else int(entry["parent_id"])
                    ),
                    name=str(entry["name"]),
                    start_us=float(entry["start_us"]),
                    end_us=float(entry["end_us"]),
                    attributes=dict(entry.get("attributes", {})),
                    annotations=dict(entry.get("annotations", {})),
                )
            )
        return trace


class TraceStore:
    """A bounded ring of completed traces, newest-last, keyed by trace id.

    Entries may be stored *deferred* -- a zero-argument builder instead of a
    :class:`Trace` -- so the serving hot path pays only a dict insert per
    request and the span tree materialises on first read (``/trace/<id>``,
    a render, an identity comparison).  Builders are pure functions of
    already-terminal request records, so deferral never changes the tree.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ReproError("trace ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._traces: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._traces)

    def add(self, trace: Trace) -> None:
        self._traces.pop(trace.trace_id, None)
        self._traces[trace.trace_id] = trace
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)

    def add_deferred(self, trace_id: str, builder) -> None:
        """Ring in a trace whose span tree is built lazily on first read."""
        self._traces.pop(trace_id, None)
        self._traces[trace_id] = builder
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)

    def _materialize(self, trace_id: str, value) -> Trace:
        if isinstance(value, Trace):
            return value
        trace = value()
        self._traces[trace_id] = trace
        return trace

    def get(self, trace_id: str) -> Optional[Trace]:
        value = self._traces.get(trace_id)
        if value is None:
            return None
        return self._materialize(trace_id, value)

    def annotate(self, trace_id: str, **annotations: object) -> bool:
        value = self._traces.get(trace_id)
        if value is None:
            return False
        self._materialize(trace_id, value).annotate(**annotations)
        return True

    def recent(self, limit: int = 20) -> List[Trace]:
        """The most recent traces, newest first."""
        picked = [
            self._materialize(trace_id, value)
            for trace_id, value in list(self._traces.items())[-max(1, int(limit)):]
        ]
        return picked[::-1]

    def all(self) -> List[Trace]:
        """Every retained trace, oldest first."""
        return [
            self._materialize(trace_id, value)
            for trace_id, value in list(self._traces.items())
        ]
