"""The metric catalogue: one accessor per series the stack emits.

Every instrumentation point gets its family through these helpers so the
name, help string, label set and bucket layout are declared exactly once
(the README's "Observability" section mirrors this file).  Each accessor is
get-or-create against the given :class:`~repro.observability.registry.
MetricsRegistry`, so calling them repeatedly is cheap and always lands on
the same series.
"""

from __future__ import annotations

from .registry import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_US,
    MetricFamily,
    MetricsRegistry,
)

__all__ = [
    "requests_total",
    "request_latency",
    "stage_latency",
    "batches_total",
    "batch_size",
    "modelled_cycles",
    "traces_sampled",
    "prefilter_requests",
    "prefilter_rows",
    "image_reopens",
    "worker_health",
    "health_transitions",
    "requeues_total",
    "fleet_sync_total",
    "fleet_sync_bytes",
    "fleet_sync_retries",
    "journal_commits",
    "journal_records",
    "learn_retries",
    "http_requests",
    "daemon_ready",
    "daemon_pending",
    "daemon_reconfiguring",
    "HEALTH_LEVELS",
    "STAGES",
]

#: Worker health states as gauge levels (``repro_worker_health_state``).
HEALTH_LEVELS = {"healthy": 0.0, "suspect": 1.0, "quarantined": 2.0}

#: The per-stage latency labels every request walks through.
STAGES = ("queue", "admission", "retrieval")


def requests_total(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_requests_total",
        "Requests by terminal serving status.",
        ("status",),
    )


def request_latency(registry: MetricsRegistry) -> MetricFamily:
    return registry.histogram(
        "repro_request_latency_us",
        "End-to-end modelled latency (virtual microseconds) of served requests.",
        buckets=LATENCY_BUCKETS_US,
        track_values=True,
    )


def stage_latency(registry: MetricsRegistry) -> MetricFamily:
    return registry.histogram(
        "repro_stage_latency_us",
        "Per-stage modelled latency in virtual microseconds "
        "(queue/admission/retrieval).",
        ("stage",),
        buckets=LATENCY_BUCKETS_US,
    )


def batches_total(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_batches_total", "Micro-batches dispatched."
    )


def batch_size(registry: MetricsRegistry) -> MetricFamily:
    return registry.histogram(
        "repro_batch_size",
        "Requests per dispatched micro-batch.",
        buckets=BATCH_SIZE_BUCKETS,
        track_values=True,
    )


def modelled_cycles(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_modelled_cycles_total",
        "Modelled execution cycles by server.",
        ("server",),
    )


def traces_sampled(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_traces_sampled_total", "Request traces admitted by the sampler."
    )


def prefilter_requests(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_prefilter_requests_total",
        "Retrievals screened by the two-stage bounds pre-filter.",
    )


def prefilter_rows(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_prefilter_rows_total",
        "Implementation rows seen by the bounds pre-filter, by outcome "
        "(pruned = skipped without exact evaluation).",
        ("outcome",),
    )


def image_reopens(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_image_reopens_total",
        "Persistent case-base image open attempts by outcome "
        "(hit = O(1) memmap reopen, miss = no image, stale = fingerprint "
        "mismatch forcing a re-encode).",
        ("outcome",),
    )


def worker_health(registry: MetricsRegistry) -> MetricFamily:
    return registry.gauge(
        "repro_worker_health_state",
        "Worker health: 0=healthy, 1=suspect, 2=quarantined.",
        ("worker",),
    )


def health_transitions(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_health_transitions_total",
        "Worker health-state transitions by destination state.",
        ("worker", "to"),
    )


def requeues_total(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_requeues_total",
        "Requests bounced to the requeue admission rung.",
    )


def fleet_sync_total(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_fleet_sync_total",
        "Fleet delta-sync stream events by mode and outcome.",
        ("mode", "status"),
    )


def fleet_sync_bytes(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_fleet_sync_bytes_total", "Bytes streamed by fleet delta syncs."
    )


def fleet_sync_retries(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_fleet_sync_retries_total",
        "Extra stream attempts consumed by fleet syncs under faults.",
    )


def journal_commits(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_journal_commits_total", "Durable journal commit groups fsynced."
    )


def journal_records(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_journal_records_total", "Journal records made durable by commits."
    )


def learn_retries(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_learn_retry_attempts_total",
        "Retry attempts consumed by /learn mutations under transient faults.",
    )


def http_requests(registry: MetricsRegistry) -> MetricFamily:
    return registry.counter(
        "repro_http_requests_total",
        "Daemon HTTP requests by route and response code.",
        ("route", "code"),
    )


def daemon_ready(registry: MetricsRegistry) -> MetricFamily:
    return registry.gauge(
        "repro_daemon_ready", "1 once journal recovery finished, else 0."
    )


def daemon_pending(registry: MetricsRegistry) -> MetricFamily:
    return registry.gauge(
        "repro_daemon_pending_requests",
        "Requests stamped into the open micro-batch.",
    )


def daemon_reconfiguring(registry: MetricsRegistry) -> MetricFamily:
    return registry.gauge(
        "repro_daemon_reconfiguring",
        "1 while queued mutations hold the reconfiguration window open.",
    )

