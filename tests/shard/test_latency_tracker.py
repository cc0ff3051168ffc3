"""The shard-task latency window's edge cases and the hedge-delay floor.

A :class:`~repro.obs.metrics.LatencyWindow` of completed shard-task
latencies feeds :meth:`FanoutSupervisor._hedge_delay`, so its window
semantics (empty, single-sample, eviction) and the interaction between
the learned quantile, the ``_MIN_HEDGE_DELAY_S`` floor, and the
``hedge_after_s`` fallback are pinned here.
"""

import pytest

from repro.obs import LatencyWindow, nearest_rank
from repro.shard.resilience import _MIN_HEDGE_DELAY_S, FanoutSupervisor, FaultPolicy


class TestWindowSemantics:
    def test_empty_window_has_no_quantile(self):
        tracker = LatencyWindow(512)
        assert len(tracker) == 0
        # The "no data yet" convention of every window: 0.0.
        assert tracker.quantile(0.5) == 0.0
        assert tracker.quantile(0.95) == 0.0

    def test_single_sample_is_every_quantile(self):
        tracker = LatencyWindow(512)
        tracker.record(0.042)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert tracker.quantile(q) == 0.042

    def test_window_evicts_oldest_first(self):
        tracker = LatencyWindow(size=3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            tracker.record(v)
        assert len(tracker) == 3
        # 1.0 and 2.0 fell off the back: the min is now the third sample.
        assert tracker.quantile(0.0) == 3.0
        assert tracker.quantile(1.0) == 5.0

    def test_quantile_is_insertion_order_independent(self):
        """The window sorts before ranking — recent-but-fast samples must
        not read as the high quantile."""
        tracker = LatencyWindow(512)
        for v in (0.5, 0.1, 0.9, 0.2):
            tracker.record(v)
        assert tracker.quantile(1.0) == 0.9

    def test_quantile_matches_the_shared_definition(self):
        values = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07]
        tracker = LatencyWindow(512)
        for v in values:
            tracker.record(v)
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert tracker.quantile(q) == nearest_rank(values, q)


def _supervisor(policy, tracker):
    return FanoutSupervisor(
        submit=lambda task: None,
        policy=policy,
        bind=lambda shard_id, avoid: 0,
        on_outcome=lambda shard_id, replica, ok: None,
        tracker=tracker,
    )


class TestHedgeDelay:
    def test_disabled_when_policy_has_no_hedging(self):
        sup = _supervisor(FaultPolicy(), LatencyWindow(512))
        assert sup._hedge_delay() is None

    def test_cold_tracker_falls_back_to_policy_constant(self):
        policy = FaultPolicy(hedge_after_s=0.25, hedge_min_samples=20)
        tracker = LatencyWindow(512)
        sup = _supervisor(policy, tracker)
        for _ in range(19):  # one short of the confidence threshold
            tracker.record(0.001)
        assert sup._hedge_delay() == 0.25

    def test_warm_tracker_uses_the_learned_quantile(self):
        policy = FaultPolicy(
            hedge_after_s=0.25, hedge_quantile=0.95, hedge_min_samples=5
        )
        tracker = LatencyWindow(512)
        for v in (0.01, 0.02, 0.03, 0.04, 0.05):
            tracker.record(v)
        sup = _supervisor(policy, tracker)
        assert sup._hedge_delay() == pytest.approx(0.05)

    def test_learned_quantile_is_floored(self):
        """A fleet of microsecond tasks must not hedge faster than the
        pool can context-switch: the floor wins over the quantile."""
        policy = FaultPolicy(hedge_after_s=0.25, hedge_min_samples=5)
        tracker = LatencyWindow(512)
        for _ in range(50):
            tracker.record(1e-6)
        sup = _supervisor(policy, tracker)
        assert sup._hedge_delay() == _MIN_HEDGE_DELAY_S
