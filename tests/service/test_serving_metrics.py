"""LatencyWindow: the shared quantile definition and the memoized sort.

Every exact percentile a stats object reports comes off a
:class:`~repro.obs.metrics.LatencyWindow`, which sorts at most once per
change — a monitoring loop polling an idle service pays no sort, and only
a recording (or a clear) invalidates the sorted copy.
"""

from types import SimpleNamespace

from repro.core.context import SearchStats
from repro.obs import LatencyWindow, nearest_rank
from repro.service.service import QueryRequest, QueryResponse, ServingFront


def _filled(samples):
    window = LatencyWindow()
    for sample in samples:
        window.record(sample)
    return window


class TestQuantiles:
    def test_percentiles_use_the_shared_definition(self):
        samples = [0.05, 0.01, 0.04, 0.02, 0.03]
        window = _filled(samples)
        ordered = sorted(samples)
        p50, p95, p99 = (window.quantile(q) for q in (0.50, 0.95, 0.99))
        assert p50 == nearest_rank(ordered, 0.50)
        assert p95 == nearest_rank(ordered, 0.95)
        assert p99 == nearest_rank(ordered, 0.99)
        assert p50 <= p95 <= p99

    def test_empty_window_reports_zero(self):
        window = LatencyWindow()
        assert window.quantile(0.50) == 0.0
        assert window.quantile(0.99) == 0.0


class TestMemoizedSort:
    def test_polls_between_recordings_reuse_the_sorted_window(self):
        window = _filled([0.02, 0.01])
        window.quantile(0.5)
        # Tamper with the memoized sort: a second poll with no new samples
        # must serve it verbatim (proof it did not re-sort the samples).
        window._sorted = [9.0]
        assert window.quantile(0.5) == 9.0

    def test_recording_invalidates_the_memo(self):
        window = _filled([0.02, 0.01])
        window.quantile(0.5)
        window._sorted = [9.0]
        window.record(0.03)
        assert window.quantile(0.50) == 0.02  # freshly re-sorted, no taint
        assert window.quantile(0.99) == 0.03

    def test_reset_invalidates_the_memo(self):
        window = _filled([0.02])
        window.quantile(0.5)
        window.clear()
        assert len(window) == 0
        assert window.quantile(0.50) == 0.0


class TestServiceWindow:
    """The service's percentiles are its window's, and an idle poll of
    ``stats()`` does not re-sort it."""

    def _front(self):
        return ServingFront(SimpleNamespace(version=0), result_cache_size=0)

    def _serve(self, front, latencies):
        def execute(requests):
            return [
                QueryResponse(request, [], SearchStats(), latency)
                for request, latency in zip(requests, latencies)
            ]

        front.serve([QueryRequest(query=None) for _ in latencies], execute)

    def test_stats_percentiles_come_from_the_window(self):
        front = self._front()
        samples = [0.05, 0.01, 0.04, 0.02, 0.03]
        self._serve(front, samples)
        stats = front.stats()
        ordered = sorted(samples)
        assert stats.queries == len(samples)
        assert stats.latency_p50_s == nearest_rank(ordered, 0.50)
        assert stats.latency_p99_s == nearest_rank(ordered, 0.99)
        assert stats.latency_mean_s == sum(samples) / len(samples)

    def test_idle_poll_does_not_resort(self):
        front = self._front()
        self._serve(front, [0.02, 0.01])
        front.stats()
        front._window._sorted = [9.0]
        assert front.stats().latency_p50_s == 9.0
        self._serve(front, [0.03])
        assert front.stats().latency_p50_s == 0.02
