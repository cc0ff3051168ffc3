"""The per-replica circuit breaker and its router integration.

All state-machine tests drive :class:`ReplicaHealth` with a fake clock —
the eject → probation → probe → restore timeline never sleeps.  The
router tests pin two properties: health steers routing around ejected
replicas, and with everything healthy the pick sequence is the plain
round-robin cycle whatever the breaker's tuning.
"""

import pytest

from repro.shard import BreakerConfig, ReplicaHealth
from repro.shard.replicas import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    BREAKER_PROBING,
    ReplicaRouter,
)

N_REPLICAS = 3


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def health(clock):
    return ReplicaHealth(
        n_shards=1,
        n_replicas=N_REPLICAS,
        config=BreakerConfig(failure_threshold=3, probation_after_s=1.0),
        clock=clock,
    )


def _fail(health, replica, times=1, shard=0):
    for _ in range(times):
        health.record_failure(shard, replica)


# ----------------------------------------------------------------------
# BreakerConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs", [{"failure_threshold": 0}, {"probation_after_s": 0.0}]
)
def test_breaker_config_rejects_degenerate_knobs(kwargs):
    with pytest.raises(ValueError):
        BreakerConfig(**kwargs)


# ----------------------------------------------------------------------
# State machine
# ----------------------------------------------------------------------
def test_consecutive_failures_eject_a_replica(health):
    _fail(health, replica=1, times=2)
    assert health.state(0, 1) == BREAKER_CLOSED
    _fail(health, replica=1)
    assert health.state(0, 1) == BREAKER_OPEN
    assert health.ejections == 1
    assert health.candidates(0) == [0, 2]


def test_success_resets_the_consecutive_count(health):
    _fail(health, replica=0, times=2)
    health.record_success(0, 0)
    _fail(health, replica=0, times=2)
    assert health.state(0, 0) == BREAKER_CLOSED  # never 3 in a row


def test_probation_admits_exactly_one_probe(health, clock):
    _fail(health, replica=2, times=3)
    assert 2 not in health.candidates(0)
    clock.advance(1.5)
    assert 2 in health.candidates(0)  # probation expired: probe-eligible
    health.note_leased(0, 2)  # routing the replica IS the probe
    assert health.state(0, 2) == BREAKER_PROBING
    assert health.probes == 1
    # While the probe is in flight the replica is not offered again.
    assert 2 not in health.candidates(0)


def test_probe_success_restores_the_replica(health, clock):
    _fail(health, replica=1, times=3)
    clock.advance(1.5)
    health.note_leased(0, 1)
    health.record_success(0, 1)
    assert health.state(0, 1) == BREAKER_CLOSED
    assert health.restores == 1
    assert health.candidates(0) == [0, 1, 2]


def test_probe_failure_reejects_for_another_interval(health, clock):
    _fail(health, replica=1, times=3)
    clock.advance(1.5)
    health.note_leased(0, 1)
    health.record_failure(0, 1)
    assert health.state(0, 1) == BREAKER_OPEN
    assert health.ejections == 2
    assert 1 not in health.candidates(0)
    clock.advance(0.5)
    assert 1 not in health.candidates(0)  # new interval, not the old one
    clock.advance(0.6)
    assert 1 in health.candidates(0)


def test_abandoned_probe_does_not_wedge_probing(health, clock):
    """A probe that stalls forever (or whose pool dies under it) never
    reports an outcome; after a full probation interval the replica must
    become routable again instead of staying PROBING forever."""
    _fail(health, replica=0, times=3)
    clock.advance(1.5)
    health.note_leased(0, 0)
    assert 0 not in health.candidates(0)  # probe outstanding
    clock.advance(1.1)
    assert 0 in health.candidates(0)  # anti-wedge re-admission
    assert health.state(0, 0) == BREAKER_PROBING


def test_straggler_success_after_ejection_is_ignored(health):
    _fail(health, replica=2, times=3)
    health.record_success(0, 2)  # an attempt from before the ejection
    assert health.state(0, 2) == BREAKER_OPEN


def test_all_replicas_down_yields_empty_candidates(health):
    for replica in range(N_REPLICAS):
        _fail(health, replica=replica, times=3)
    assert health.candidates(0) == []


# ----------------------------------------------------------------------
# Router integration
# ----------------------------------------------------------------------
def test_round_robin_routes_around_ejected_replica(clock):
    router = ReplicaRouter(
        1,
        N_REPLICAS,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=60.0),
        clock=clock,
    )
    router.record_failure(0, 1)
    assert router.replica_state(0, 1) == BREAKER_OPEN
    picks = [router.route(0) for _ in range(4)]
    assert picks == [0, 2, 0, 2]  # the cursor skips the ejected copy


def test_router_probe_flow_restores_replica(clock):
    router = ReplicaRouter(
        1,
        2,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=1.0),
        clock=clock,
    )
    router.record_failure(0, 0)
    assert [router.route(0) for _ in range(3)] == [1, 1, 1]
    clock.advance(2.0)
    # Next lease that lands on the expired replica is the probe.
    picks = {router.route(0) for _ in range(2)}
    assert 0 in picks
    assert router.replica_state(0, 0) == BREAKER_PROBING
    # Only ONE probe: while it's outstanding, everything else goes to 1.
    assert [router.route(0) for _ in range(3)] == [1, 1, 1]
    router.record_success(0, 0)
    assert router.replica_state(0, 0) == BREAKER_CLOSED
    assert router.health.restores == 1


def test_router_serves_even_with_every_replica_ejected(clock):
    router = ReplicaRouter(
        1,
        2,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=60.0),
        clock=clock,
    )
    router.record_failure(0, 0)
    router.record_failure(0, 1)
    # Health degrades routing, never availability: route still answers,
    # and a retry still moves off the copy it replaces.
    replica = router.route(0)
    assert replica in (0, 1)
    assert router.route(0, avoid=replica) == 1 - replica


# ----------------------------------------------------------------------
# All-healthy: the breaker's tuning never moves the cycle
# ----------------------------------------------------------------------
def test_round_robin_sequence_unchanged_by_breaker():
    plain = ReplicaRouter(2, 3)
    gated = ReplicaRouter(2, 3, breaker=BreakerConfig(failure_threshold=1))
    for shard in (0, 1):
        assert [plain.route(shard) for _ in range(5)] == [
            gated.route(shard) for _ in range(5)
        ]
