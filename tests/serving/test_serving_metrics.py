"""Metrics collector: percentiles, histograms and report shape."""

import gc
import json
import tracemalloc
from collections import Counter

import pytest

from repro.observability.registry import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_US
from repro.serving import MetricsCollector, ServingSpec, percentile, percentiles


class TestPercentile:
    def test_nearest_rank_on_known_sample(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_reported_value_is_always_observed(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0.5) in values
        assert percentile(values, 0.0) == 1.0

    def test_empty_sample_and_bad_fraction(self):
        assert percentile([], 0.5) is None
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_bad_fraction_raises_identically_for_empty_samples(self):
        """Regression: validation happens before the sample emptiness check.

        A bad fraction used to slip through silently on empty samples
        (returning ``None``); now the fraction-range check is hoisted ahead
        of the sample inspection, so callers learn about the bug regardless
        of traffic volume.
        """
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                percentile([], bad)
            with pytest.raises(ValueError):
                percentile([1.0, 2.0], bad)
            with pytest.raises(ValueError):
                percentiles([], (0.5, bad))
            with pytest.raises(ValueError):
                percentiles([1.0, 2.0], (0.5, bad))

    def test_percentiles_matches_single_calls(self):
        values = [float(v) for v in range(1, 101)]
        assert percentiles(values, (0.5, 0.95, 0.99)) == (
            percentile(values, 0.5),
            percentile(values, 0.95),
            percentile(values, 0.99),
        )
        assert percentiles([], (0.5, 0.9)) == (None, None)


class TestCollector:
    def _collector(self):
        collector = MetricsCollector()
        collector.observe_batch(2)
        collector.observe_batch(2)
        collector.observe_batch(1)
        collector.observe_request("served_hardware", latency_us=100.0, hardware_cycles=500)
        collector.observe_request("served_software", latency_us=400.0, software_cycles=4000)
        collector.observe_request("rejected_deadline")
        collector.observe_request("failed")
        collector.wall_seconds = 0.5
        return collector

    def test_report_aggregates(self):
        report = self._collector().report()
        assert report["requests"] == 4
        assert report["served"] == 2
        assert report["rejected"] == 2
        assert report["rejection_rate"] == 0.5
        assert report["statuses"]["served_hardware"] == 1
        assert report["latency"]["p50_us"] == 100.0
        assert report["latency"]["max_us"] == 400.0
        assert report["batches"] == {
            "count": 3, "mean_size": 5 / 3, "histogram": {1: 1, 2: 2}
        }
        assert report["modelled_cycles"] == {"hardware": 500, "software": 4000}
        assert report["throughput_rps"] == 8.0

    def test_report_is_json_serialisable(self):
        json.dumps(self._collector().report())

    def test_empty_collector_reports_zeros(self):
        report = MetricsCollector().report()
        assert report["requests"] == 0
        assert report["rejection_rate"] == 0.0
        assert report["latency"]["p50_us"] is None
        assert report["batches"]["count"] == 0
        assert report["throughput_rps"] is None


def _histogram(text, name):
    """``({le: cumulative count}, sum, count)`` of one unlabelled family."""
    buckets, total, count = {}, None, None
    for line in text.splitlines():
        sample, _, value = line.rpartition(" ")
        if sample.startswith(f'{name}_bucket{{le="'):
            buckets[float(sample[len(name) + 12:-2])] = int(value)
        elif sample == f"{name}_sum":
            total = float(value)
        elif sample == f"{name}_count":
            count = int(value)
    return buckets, total, count


def _tally(values, bounds):
    """The same histogram, counted independently of the registry."""
    total = 0.0
    for value in values:
        total += float(value)
    buckets = {bound: sum(1 for v in values if v <= bound) for bound in bounds}
    buckets[float("inf")] = len(values)
    return buckets, total, len(values)


def _heavy_traffic(duration_ms):
    spec = ServingSpec(workloads=("heavy-traffic",), duration_ms=duration_ms, seed=3)
    case_base, trace = spec.resolve_inputs()
    return spec.build_engine(case_base), trace


def _stable(report):
    metrics = dict(report.metrics)
    metrics.pop("wall_seconds")
    metrics.pop("throughput_rps")
    return metrics, [record.to_dict() for record in report.served]


class TestSessionTallies:
    def test_exposition_equals_an_independent_tally_per_session(self):
        engine, trace = _heavy_traffic(400.0)
        half = len(trace) // 2
        latencies, sizes = [], []
        for part in (trace[:half], trace[half:]):
            report = engine.serve(part)
            # Each session reports only its own requests.
            assert report.metrics["requests"] == len(part)
            own = [r.latency_us for r in report.served if r.latency_us is not None]
            assert report.metrics["latency"]["max_us"] == max(own)
            assert report.metrics["latency"]["p50_us"] == percentile(own, 0.5)
            per_batch = Counter(record.batch_index for record in report.served)
            assert report.metrics["batches"]["count"] == len(per_batch)
            assert report.metrics["batches"]["histogram"] == dict(
                sorted(Counter(per_batch.values()).items())
            )
            # The engine's registry holds both sessions, in serving order.
            latencies += own
            sizes += [per_batch[index] for index in sorted(per_batch)]
            text = engine.observability.registry.exposition()
            assert _histogram(text, "repro_request_latency_us") == _tally(
                latencies, LATENCY_BUCKETS_US
            )
            assert _histogram(text, "repro_batch_size") == _tally(
                sizes, BATCH_SIZE_BUCKETS
            )
        assert len(latencies) == len(trace)

    def test_engine_registry_stays_flat_across_sessions(self):
        engine, trace = _heavy_traffic(1000.0)
        tracemalloc.start()
        try:
            first = engine.serve(trace)
            # A full collection also empties the interpreter's free lists,
            # whose parked blocks tracemalloc still books to their first
            # allocation site.
            gc.collect()
            before = tracemalloc.take_snapshot()
            later = [engine.serve(trace) for _ in range(4)]
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        only = [tracemalloc.Filter(True, "*/observability/registry.py")]
        growth = sum(
            stat.size_diff
            for stat in after.filter_traces(only).compare_to(
                before.filter_traces(only), "filename"
            )
        )
        assert growth < 1024, f"registry grew {growth} B over 4 sessions"
        for report in later:
            assert _stable(report) == _stable(first)
