"""Metric primitives: nearest_rank, counters, gauges, histograms, registry."""

import json
import math
import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricRegistry, nearest_rank
from repro.obs.metrics import BOUNDS


class TestNearestRank:
    def test_empty_returns_zero(self):
        assert nearest_rank([], 0.5) == 0.0

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert nearest_rank([7.0], q) == 7.0

    def test_matches_the_classic_definition(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank(values, 0.5) == 3.0  # ceil(0.5*5)=3 -> idx 2
        assert nearest_rank(values, 0.95) == 5.0
        assert nearest_rank(values, 0.2) == 1.0

    def test_clamped_at_the_ends(self):
        values = [1.0, 2.0]
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank(values, 1.0) == 2.0


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_per_thread_cells_merge(self):
        c = Counter("c")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(6.0)
        assert g.value() == 6.0

    def test_starts_at_zero_and_shared_across_threads(self):
        g = Gauge("g")
        assert g.value() == 0.0
        t = threading.Thread(target=g.set, args=(3.5,))
        t.start()
        t.join()
        # One value, not per-thread cells: the writer's set is visible here.
        assert g.value() == 3.5


class TestHistogram:
    def test_empty_quantile_is_zero(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0 and snap["p50"] == snap["p99"] == 0.0

    def test_quantile_never_exceeds_observed_peak(self):
        h = Histogram("h")
        h.observe(0.0123)
        # One sample: every quantile is that sample, not a bucket bound.
        snap = h.snapshot()
        assert snap["p50"] == snap["p99"] == 0.0123

    def test_quantiles_track_bucket_bounds(self):
        h = Histogram("h")
        for _ in range(99):
            h.observe(0.001)
        h.observe(10.0)
        snap = h.snapshot()
        assert snap["p50"] < 0.002  # the dense low bucket's bound
        assert snap["p99"] >= 0.001
        assert snap["max"] == 10.0  # the straggler is the peak

    def test_overflow_bucket_reports_true_max(self):
        h = Histogram("h")
        h.observe(123.0)  # past the last bound (~56 s)
        assert h.snapshot()["buckets"][-1] == 1
        assert h.snapshot()["p99"] == 123.0

    def test_bounds_are_fixed_and_ascending(self):
        assert list(BOUNDS) == sorted(BOUNDS) and len(BOUNDS) == 29
        assert BOUNDS[0] == 1e-5

    def test_snapshot_counts_and_sum(self):
        h = Histogram("h")
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert math.isclose(snap["sum"], 0.111)
        assert snap["max"] == 0.1
        assert sum(snap["buckets"]) == 3


class TestMetricRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_is_json_serializable(self):
        reg = MetricRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.02)
        snap = reg.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["c"] == 3.0
        assert parsed["g"] == 1.5
        assert parsed["h"]["count"] == 1
