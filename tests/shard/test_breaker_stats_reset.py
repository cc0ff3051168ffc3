"""Regression: breaker lifecycle counters must honour reset_stats().

``ReplicaHealth.ejections/restores/probes`` are lifetime-monotonic by
design (the router's health logic diffs nothing and must never rewind).
The serving tier surfaces them through ``stats()``, which *is* a
windowed view — ``reset_stats()`` zeroes queries, latencies, retries.
Before the reset-baseline fix, the breaker counters leaked through a
reset: a monitoring poller that resets per scrape would re-report every
historical ejection forever.
"""

import copy
import time

import pytest

from repro.index.gat.index import GATConfig
from repro.shard import BreakerConfig, ShardedGATIndex, ShardedQueryService

CONFIG = GATConfig(depth=4, memory_levels=3)
N_SHARDS = 2


@pytest.fixture()
def service(tiny_db):
    sharded = ShardedGATIndex.build(
        copy.deepcopy(tiny_db), n_shards=N_SHARDS, config=CONFIG
    )
    with ShardedQueryService(
        sharded,
        executor="serial",
        n_replicas=2,
        breaker=BreakerConfig(failure_threshold=1, probation_after_s=0.05),
        result_cache_size=0,
    ) as svc:
        yield svc


def test_ejections_surface_in_stats(service):
    assert service.stats().breaker_ejections == 0
    service.placement.router.record_failure(0, 0)  # threshold 1: instant ejection
    stats = service.stats()
    assert stats.breaker_ejections == 1
    assert stats.breaker_restores == 0


def test_reset_stats_zeroes_breaker_counters(service):
    service.placement.router.record_failure(0, 0)
    service.placement.router.record_failure(1, 1)
    assert service.stats().breaker_ejections == 2

    service.reset_stats()
    stats = service.stats()
    # The regression: these read 2 again before the reset baseline.
    assert stats.breaker_ejections == 0
    assert stats.breaker_restores == 0
    assert stats.breaker_probes == 0

    # New trips after the reset count from zero, not from history.
    service.placement.router.record_failure(0, 1)
    assert service.stats().breaker_ejections == 1


def test_probe_and_restore_count_within_the_window(service):
    router = service.placement.router
    router.record_failure(0, 0)  # eject replica (0, 0)
    service.reset_stats()
    time.sleep(0.06)  # probation expires
    # Routing shard 0 onto the probation candidate is its probe;
    # round-robin's cursor may need one extra pick to land on it.
    probed = None
    for _ in range(2):
        replica = router.route(0)
        if router.replica_state(0, replica) == "probing":
            probed = replica
            break
    assert probed is not None
    router.record_success(0, probed)  # the probe heals the replica
    stats = service.stats()
    assert stats.breaker_probes == 1
    assert stats.breaker_restores == 1
    assert stats.breaker_ejections == 0  # the pre-reset ejection stays out
    assert router.replica_state(0, probed) == "closed"
