"""Prometheus text exposition: rendering and strict re-parsing.

The re-parse tests are the exposition format's contract: every line
the renderer emits must match the sample grammar exactly (name,
labels, value), so a real Prometheus scraper never chokes on our
``/metrics``.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import BUCKET_BOUNDS, MetricsRegistry, parse_prometheus, render_prometheus
from repro.obs.promexpo import CONTENT_TYPE, sanitize_name


@pytest.fixture
def registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("service.queries", 7)
    reg.inc("http.requests", 3, labels={"method": "GET", "status": "200"})
    reg.inc("http.requests", 1, labels={"method": "POST", "status": "429"})
    reg.set_gauge("device_bytes_in_use", 4096.0)
    for v in (0.002, 0.004, 0.008, 0.5):
        reg.observe("service.query.seconds", v)
    return reg


def _bucket_lines(name, labels, observed):
    """The cumulative ``_bucket`` lines of a histogram that saw ``observed``."""
    bounds = [(b, repr(b)) for b in BUCKET_BOUNDS] + [(math.inf, "+Inf")]
    return [
        f'{name}_bucket{{{labels}le="{text}"}} {sum(v <= b for v in observed)}'
        for b, text in bounds
    ]


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_name("service.cache.hits") == "service_cache_hits"

    def test_leading_digit(self):
        assert sanitize_name("95th.percentile")[0] == "_"

    def test_odd_chars(self):
        assert sanitize_name("a-b/c d") == "a_b_c_d"


class TestRender:
    def test_every_line_reparses(self, registry):
        text = render_prometheus(registry)
        samples = parse_prometheus(text)  # raises on any bad line
        assert samples, "no samples rendered"

    def test_counter_value_and_type(self, registry):
        samples = parse_prometheus(render_prometheus(registry))
        (q,) = [s for s in samples if s["name"] == "service_queries"]
        assert q["value"] == 7
        assert q["type"] == "counter"
        assert q["labels"] == {}

    def test_labeled_counters(self, registry):
        samples = parse_prometheus(render_prometheus(registry))
        http = [s for s in samples if s["name"] == "http_requests"]
        assert len(http) == 2
        by_labels = {tuple(sorted(s["labels"].items())): s["value"] for s in http}
        assert by_labels[(("method", "GET"), ("status", "200"))] == 3
        assert by_labels[(("method", "POST"), ("status", "429"))] == 1

    def test_gauge(self, registry):
        samples = parse_prometheus(render_prometheus(registry))
        (g,) = [s for s in samples if s["name"] == "device_bytes_in_use"]
        assert g["value"] == 4096
        assert g["type"] == "gauge"

    def test_histogram_series(self, registry):
        samples = parse_prometheus(render_prometheus(registry))
        buckets = [s for s in samples if s["name"] == "service_query_seconds_bucket"]
        assert buckets, "no bucket series"
        # cumulative and monotone, ending at the +Inf bucket == count
        values = [s["value"] for s in buckets]
        assert values == sorted(values)
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 4
        (count,) = [s for s in samples if s["name"] == "service_query_seconds_count"]
        assert count["value"] == 4
        (total,) = [s for s in samples if s["name"] == "service_query_seconds_sum"]
        assert total["value"] == pytest.approx(0.514)

    def test_quantile_gauges_present(self, registry):
        samples = parse_prometheus(render_prometheus(registry))
        names = {s["name"] for s in samples}
        for q in ("p50", "p90", "p99"):
            assert f"service_query_seconds_{q}" in names
        p99 = next(
            s for s in samples if s["name"] == "service_query_seconds_p99"
        )
        assert 0.002 <= p99["value"] <= 0.5

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        reg.inc("weird", labels={"v": nasty})
        (s,) = parse_prometheus(render_prometheus(reg))
        assert s["labels"]["v"] == nasty

    def test_unlabeled_and_labeled_series_of_one_name(self):
        """Each kind renders a name's unlabeled series first, then its
        labeled ones, whatever order they were written in; the quantile
        gauges follow the histogram's last series."""
        reg = MetricsRegistry()
        reg.inc("x.total", 2, labels={"k": "a"})
        reg.inc("x.total", 5)
        reg.set_gauge("x.level", 7, labels={"k": "a"})
        reg.set_gauge("x.level", 1.5)
        reg.observe("x.seconds", 0.5, labels={"k": "a"})
        reg.observe("x.seconds", 1.0)
        reg.observe("x.seconds", 3.0)
        assert render_prometheus(reg).splitlines() == [
            "# TYPE x_total counter",
            "x_total 5",
            'x_total{k="a"} 2',
            "# TYPE x_level gauge",
            "x_level 1.5",
            'x_level{k="a"} 7',
            "# TYPE x_seconds histogram",
            *_bucket_lines("x_seconds", "", (1.0, 3.0)),
            "x_seconds_sum 4",
            "x_seconds_count 2",
            *_bucket_lines("x_seconds", 'k="a",', (0.5,)),
            'x_seconds_sum{k="a"} 0.5',
            'x_seconds_count{k="a"} 1',
            "# TYPE x_seconds_p50 gauge",
            "x_seconds_p50 1",
            "# TYPE x_seconds_p90 gauge",
            "x_seconds_p90 3",
            "# TYPE x_seconds_p99 gauge",
            "x_seconds_p99 3",
        ]

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_content_type_versioned(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestStrictParser:
    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            parse_prometheus("this is ! not a sample\n")

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_prometheus('m{key=unquoted} 1\n')

    def test_rejects_bad_type_line(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE missing_kind\n")

    def test_inf_values(self):
        (s,) = parse_prometheus("m_bucket{le=\"+Inf\"} 3\n")
        assert s["labels"]["le"] == "+Inf"

    def test_skips_blank_and_help_lines(self):
        samples = parse_prometheus("\n# HELP m something\n# TYPE m counter\nm 1\n")
        assert len(samples) == 1
        assert samples[0]["type"] == "counter"

    def test_value_inf(self):
        (s,) = parse_prometheus("m +Inf\n")
        assert math.isinf(s["value"])
