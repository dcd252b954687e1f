"""Metrics registry: families, labels, histograms, Prometheus exposition."""

import re

import pytest

from repro.core.exceptions import ReproError
from repro.observability import MetricsRegistry

#: Every non-comment exposition line must parse as `name{labels} value`.
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r'(-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$'
)


class TestFamilies:
    def test_counter_inc_and_values(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_things_total", "things", labels=("kind",))
        family.labels(kind="a").inc()
        family.labels(kind="a").inc(2)
        family.labels(kind="b").inc()
        assert family.values() == {("a",): 3.0, ("b",): 1.0}

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.counter("repro_c_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.child().value == 4.0

    def test_get_or_create_shares_series(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_shared_total", "one")
        second = registry.counter("repro_shared_total", "one")
        assert first is second

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_taken_total")
        with pytest.raises(ReproError):
            registry.gauge("repro_taken_total")

    def test_label_set_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_l_total", labels=("a",))
        with pytest.raises(ReproError):
            registry.counter("repro_l_total", labels=("b",))

    def test_wrong_labels_on_child_lookup(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_w_total", labels=("kind",))
        with pytest.raises(ReproError):
            family.labels(wrong="x")

    def test_invalid_metric_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.counter("repro-bad-name")


class TestHistogram:
    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        family = registry.histogram("repro_h_us", buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            family.observe(value)
        child = family.child()
        assert child.count == 4
        assert child.sum == 5555.0
        assert child.cumulative() == [
            (10.0, 1), (100.0, 2), (1000.0, 3), (float("inf"), 4),
        ]

    def test_boundary_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bounds).
        registry = MetricsRegistry()
        family = registry.histogram("repro_b_us", buckets=(10, 100))
        family.observe(10)
        assert family.child().cumulative()[0] == (10.0, 1)


class TestExposition:
    def test_every_line_is_comment_or_valid_sample(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests.", labels=("status",)
        ).labels(status="served_hardware").inc(3)
        registry.gauge("repro_up", "Up.").set(1)
        registry.histogram(
            "repro_latency_us", "Latency.", buckets=(100, 1000)
        ).observe(250)
        text = registry.exposition()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or SAMPLE_LINE.match(line), line

    def test_help_type_and_sample_lines(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests by status.", labels=("status",)
        ).labels(status="ok").inc()
        text = registry.exposition()
        assert "# HELP repro_requests_total Requests by status.\n" in text
        assert "# TYPE repro_requests_total counter\n" in text
        assert 'repro_requests_total{status="ok"} 1\n' in text

    def test_histogram_rendering(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_us", "H.", buckets=(10,)).observe(5)
        text = registry.exposition()
        assert 'repro_h_us_bucket{le="10"} 1' in text
        assert 'repro_h_us_bucket{le="+Inf"} 1' in text
        assert "repro_h_us_sum 5" in text
        assert "repro_h_us_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_e_total", labels=("v",)).labels(
            v='quo"te\nline'
        ).inc()
        text = registry.exposition()
        assert 'v="quo\\"te\\nline"' in text

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("repro_zzz_total").inc()
        registry.counter("repro_aaa_total").inc()
        text = registry.exposition()
        assert text.index("repro_aaa_total") < text.index("repro_zzz_total")

    def test_snapshot_is_json_able(self):
        import json

        registry = MetricsRegistry()
        registry.counter("repro_s_total", labels=("k",)).labels(k="x").inc()
        registry.histogram("repro_s_us", buckets=(10,)).observe(1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["repro_s_total"]["series"]["k=x"] == 1.0
