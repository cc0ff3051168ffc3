"""The per-replica circuit breaker inside :class:`ReplicaRouter`.

Every state-machine test drives ``ReplicaRouter(clock=fake)`` through
its two entries, ``route`` and ``record`` — the eject → probation →
probe → restore timeline never sleeps.  Routability is read off the pick
sequence: a copy the breaker holds out is never routed while a sibling
is routable.  The last tests pin that health steers routing around
ejected replicas, and that with everything healthy the pick sequence is
the plain round-robin cycle whatever the breaker's tuning.
"""

import pytest

from repro.shard import BreakerConfig
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
def router(clock):
    return ReplicaRouter(
        1,
        N_REPLICAS,
        breaker=BreakerConfig(failure_threshold=3, probation_after_s=1.0),
        clock=clock,
    )


def _fail(router, replica, times=1, shard=0):
    for _ in range(times):
        router.record(shard, replica, False)


def _routed(router, picks=2 * N_REPLICAS):
    """The set of copies a run of picks lands on (two full cycles)."""
    return {router.route(0) for _ in range(picks)}


def _probe(router, replica):
    """Route until *replica* is picked: that pick is its probe."""
    for _ in range(N_REPLICAS):
        if router.route(0) == replica:
            return
    raise AssertionError(f"replica {replica} was never routed")


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
def test_consecutive_failures_eject_a_replica(router):
    _fail(router, replica=1, times=2)
    assert router.replica_state(0, 1) == BREAKER_CLOSED
    _fail(router, replica=1)
    assert router.replica_state(0, 1) == BREAKER_OPEN
    assert router.health_counters() == (1, 0, 0)
    assert _routed(router) == {0, 2}


def test_success_resets_the_consecutive_count(router):
    _fail(router, replica=0, times=2)
    router.record(0, 0, True)
    _fail(router, replica=0, times=2)
    assert router.replica_state(0, 0) == BREAKER_CLOSED  # never 3 in a row


def test_probation_admits_exactly_one_probe(router, clock):
    _fail(router, replica=2, times=3)
    assert 2 not in _routed(router)
    clock.advance(1.5)
    _probe(router, 2)  # probation expired: routing the replica IS the probe
    assert router.replica_state(0, 2) == BREAKER_PROBING
    assert router.probes == 1
    # While the probe is in flight the replica is not offered again.
    assert 2 not in _routed(router)
    assert router.probes == 1


def test_probe_success_restores_the_replica(router, clock):
    _fail(router, replica=1, times=3)
    clock.advance(1.5)
    _probe(router, 1)
    router.record(0, 1, True)
    assert router.replica_state(0, 1) == BREAKER_CLOSED
    assert router.restores == 1
    assert _routed(router) == {0, 1, 2}


def test_probe_failure_reejects_for_another_interval(router, clock):
    _fail(router, replica=1, times=3)
    clock.advance(1.5)
    _probe(router, 1)
    router.record(0, 1, False)
    assert router.replica_state(0, 1) == BREAKER_OPEN
    assert router.ejections == 2
    assert 1 not in _routed(router)
    clock.advance(0.5)
    assert 1 not in _routed(router)  # new interval, not the old one
    clock.advance(0.6)
    assert 1 in _routed(router)


def test_abandoned_probe_does_not_wedge_probing(router, clock):
    """A probe that stalls forever (or whose pool dies under it) never
    reports an outcome; after a full probation interval the replica must
    become routable again instead of staying PROBING forever."""
    _fail(router, replica=0, times=3)
    clock.advance(1.5)
    _probe(router, 0)
    assert 0 not in _routed(router)  # probe outstanding
    clock.advance(1.1)
    assert 0 in _routed(router)  # anti-wedge re-admission
    assert router.replica_state(0, 0) == BREAKER_PROBING


def test_straggler_success_after_ejection_is_ignored(router):
    _fail(router, replica=2, times=3)
    router.record(0, 2, True)  # an attempt from before the ejection
    assert router.replica_state(0, 2) == BREAKER_OPEN


def test_all_replicas_down_routes_to_all(router):
    """Health degrades routing, never availability: with every copy
    ejected the pick falls back to the plain cycle over all of them,
    and none of those picks is a probe."""
    for replica in range(N_REPLICAS):
        _fail(router, replica=replica, times=3)
    assert [router.route(0) for _ in range(N_REPLICAS)] == [0, 1, 2]
    assert router.probes == 0


# ----------------------------------------------------------------------
# Routing around the breaker
# ----------------------------------------------------------------------
def test_round_robin_routes_around_ejected_replica(clock):
    router = ReplicaRouter(
        1,
        N_REPLICAS,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=60.0),
        clock=clock,
    )
    router.record(0, 1, False)
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
    router.record(0, 0, False)
    assert [router.route(0) for _ in range(3)] == [1, 1, 1]
    clock.advance(2.0)
    # Next lease that lands on the expired replica is the probe.
    picks = {router.route(0) for _ in range(2)}
    assert 0 in picks
    assert router.replica_state(0, 0) == BREAKER_PROBING
    # Only ONE probe: while it's outstanding, everything else goes to 1.
    assert [router.route(0) for _ in range(3)] == [1, 1, 1]
    router.record(0, 0, True)
    assert router.replica_state(0, 0) == BREAKER_CLOSED
    assert router.restores == 1


def test_router_serves_even_with_every_replica_ejected(clock):
    router = ReplicaRouter(
        1,
        2,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=60.0),
        clock=clock,
    )
    router.record(0, 0, False)
    router.record(0, 1, False)
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
