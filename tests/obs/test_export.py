"""Exporters: JSONL round trips, span validation, Prometheus text."""

import pytest

from repro.obs import (
    MetricRegistry,
    Tracer,
    parse_prometheus_text,
    prometheus_text,
    read_spans_jsonl,
    spans_to_jsonl,
    validate_spans,
    write_spans_jsonl,
)


def _small_trace():
    tracer = Tracer()
    root = tracer.start_span("query", attrs={"k": 5})
    child = root.child("shard_task", attrs={"shard": 0})
    child.add_event("disk_read", pages=3)
    child.end()
    root.end()
    return tracer.drain()


class TestJsonl:
    def test_write_read_validate_round_trip(self, tmp_path):
        spans = _small_trace()
        path = tmp_path / "spans.jsonl"
        n = write_spans_jsonl(path, spans)
        assert n == 2
        records = validate_spans(read_spans_jsonl(path))
        assert [r["name"] for r in records] == [s.name for s in spans]
        assert records[0]["events"][0]["pages"] == 3

    def test_empty_dump_is_empty_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(path, []) == 0
        assert path.read_text() == ""
        assert read_spans_jsonl(path) == []

    def test_jsonl_is_one_object_per_line(self):
        text = spans_to_jsonl(_small_trace())
        assert text.endswith("\n")
        assert len(text.strip().splitlines()) == 2


class TestValidateSpans:
    def test_accepts_span_objects_and_dicts(self):
        spans = _small_trace()
        assert len(validate_spans(spans)) == 2
        assert len(validate_spans([s.to_dict() for s in spans])) == 2

    def test_duplicate_span_id(self):
        rec = _small_trace()[1].to_dict()
        with pytest.raises(ValueError, match="duplicate span_id"):
            validate_spans([rec, dict(rec)])

    def test_missing_required_field(self):
        rec = _small_trace()[1].to_dict()
        rec["trace_id"] = None
        with pytest.raises(ValueError, match="missing required field"):
            validate_spans([rec])

    def test_unresolved_parent(self):
        child, _root = _small_trace()
        with pytest.raises(ValueError, match="not in dump"):
            validate_spans([child])

    def test_end_before_start(self):
        rec = _small_trace()[1].to_dict()
        rec["end_s"] = rec["start_s"] - 1.0
        with pytest.raises(ValueError, match="ends before it starts"):
            validate_spans([rec])

    def test_trace_id_mismatch_with_parent(self):
        child, root = (s.to_dict() for s in _small_trace())
        child["trace_id"] = "deadbeefdeadbeef"
        with pytest.raises(ValueError, match="trace_id differs"):
            validate_spans([child, root])


class TestPrometheus:
    def _registry(self):
        reg = MetricRegistry()
        reg.counter("repro_queries_total").inc(6)
        reg.gauge("repro_window").set(3.5)
        h = reg.histogram("repro_latency_seconds")
        for v in (0.005, 0.05, 5.0):
            h.observe(v)
        return reg

    def test_renders_types_and_cumulative_buckets(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_queries_total counter" in text
        assert "# TYPE repro_window gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        samples = parse_prometheus_text(text)
        assert samples["repro_queries_total"] == 6.0
        assert samples["repro_window"] == 3.5
        # Buckets are cumulative and +Inf equals _count.
        assert samples['repro_latency_seconds_bucket{le="0.01"}'] == 1.0
        assert samples['repro_latency_seconds_bucket{le="0.1"}'] == 2.0
        assert samples['repro_latency_seconds_bucket{le="+Inf"}'] == 3.0
        assert samples["repro_latency_seconds_count"] == 3.0
        assert samples["repro_latency_seconds_sum"] == pytest.approx(5.055)

    def test_one_type_line_and_one_sample_per_counter(self):
        reg = MetricRegistry()
        for name in ("repro_b_total", "repro_a_total", "repro_b_total"):
            reg.counter(name).inc()
        assert prometheus_text(reg).splitlines() == [
            "# TYPE repro_a_total counter",
            "repro_a_total 1",
            "# TYPE repro_b_total counter",
            "repro_b_total 2",
        ]

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricRegistry()) == ""
        assert parse_prometheus_text("") == {}

    def test_parser_is_strict(self):
        with pytest.raises(ValueError, match="malformed exposition line"):
            parse_prometheus_text("this is not a sample\n")
        with pytest.raises(ValueError, match="malformed sample value"):
            parse_prometheus_text("repro_queries_total six\n")

    def test_parser_skips_comments_and_blanks(self):
        text = "# HELP x y\n\nx 1\n"
        assert parse_prometheus_text(text) == {"x": 1.0}

    def test_invalid_metric_name_refused(self):
        reg = MetricRegistry()
        reg.counter("bad-name")
        with pytest.raises(ValueError, match="invalid metric name"):
            prometheus_text(reg)
