"""ServingMetrics: the shared quantile definition and the memoized sort.

``stats()`` used to re-sort the whole latency window on every poll; now
the sorted window is memoized per generation — a monitoring loop polling
an idle service pays O(1), and only a recording (or reset) invalidates.
"""

from repro.obs import nearest_rank
from repro.service.service import ServiceStats, ServingMetrics


def _fill(metrics):
    return metrics.fill(ServiceStats())


class TestQuantiles:
    def test_percentiles_use_the_shared_definition(self):
        metrics = ServingMetrics()
        samples = [0.05, 0.01, 0.04, 0.02, 0.03]
        metrics.record((s, 0) for s in samples)
        stats = _fill(metrics)
        ordered = sorted(samples)
        assert stats.latency_p50_s == nearest_rank(ordered, 0.50)
        assert stats.latency_p95_s == nearest_rank(ordered, 0.95)
        assert stats.latency_p99_s == nearest_rank(ordered, 0.99)
        assert stats.latency_p50_s <= stats.latency_p95_s <= stats.latency_p99_s

    def test_empty_window_reports_zero(self):
        stats = _fill(ServingMetrics())
        assert stats.latency_p50_s == 0.0
        assert stats.latency_p99_s == 0.0


class TestMemoizedSort:
    def test_polls_between_recordings_reuse_the_sorted_window(self):
        metrics = ServingMetrics()
        metrics.record([(0.02, 0), (0.01, 0)])
        _fill(metrics)
        # Tamper with the memoized sort: a second poll with no new samples
        # must serve it verbatim (proof it did not re-sort the deque).
        metrics._sorted_window = [9.0]
        assert _fill(metrics).latency_p50_s == 9.0

    def test_recording_invalidates_the_memo(self):
        metrics = ServingMetrics()
        metrics.record([(0.02, 0), (0.01, 0)])
        _fill(metrics)
        metrics._sorted_window = [9.0]
        metrics.record([(0.03, 0)])
        stats = _fill(metrics)
        assert stats.latency_p50_s == 0.02  # freshly re-sorted, no taint
        assert stats.latency_p99_s == 0.03

    def test_reset_invalidates_the_memo(self):
        metrics = ServingMetrics()
        metrics.record([(0.02, 0)])
        _fill(metrics)
        metrics.reset()
        stats = _fill(metrics)
        assert stats.queries == 0
        assert stats.latency_p50_s == 0.0
