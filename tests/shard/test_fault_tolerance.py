"""Supervised fan-out under injected faults: the serving-tier contract.

Parity when healthy, failover on errors, graceful degradation on dead
shards and missed deadlines, hedging on stragglers — and the leak
regressions: every failure path must hand back its engine leases and
threshold slots.
"""

import copy
import math

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.context import SearchStats
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.results import TopKCollector
from repro.faults import FaultInjector, FaultRule, InjectedDiskError
from repro.index.gat.index import GATConfig, GATIndex
from repro.shard import (
    FaultPolicy,
    ShardedGATIndex,
    ShardedQueryService,
    ShardTaskError,
)
from repro.storage.disk import SimulatedDisk

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 5
N_SHARDS = 2


@pytest.fixture()
def db(tiny_db):
    return copy.deepcopy(tiny_db)


@pytest.fixture()
def queries(db):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=17)
    )
    return gen.queries(4)


def _build(db, disk_factory=None):
    return ShardedGATIndex.build(
        db, n_shards=N_SHARDS, config=CONFIG, disk_factory=disk_factory
    )


def _shard_down_build(db, rule, seed=7):
    """A sharded index whose *first-built* shard wears the faulty disk."""
    injector = FaultInjector(rule, seed=seed)
    disks = iter(
        [SimulatedDisk(fault_injector=injector)]
        + [SimulatedDisk() for _ in range(N_SHARDS - 1)]
    )
    return _build(db, disk_factory=lambda: next(disks)), injector


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _truth(db, queries):
    with _build(db) as sharded:
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            return _rankings(service.search_many(queries, k=K))


# ----------------------------------------------------------------------
# Parity: replicas, backends, and policies must be invisible when nothing
# fails
# ----------------------------------------------------------------------
SCALAR = EngineConfig(kernel="scalar")


def _scalar_oracle(db, sharded, queries):
    """No service code involved.  Rankings: the scalar engine over one
    single index of the whole database.  Pruning counters: a serial
    fan-out replayed by hand — one scalar engine per shard index, nearest
    shard first, pruning against a plain shared collector."""
    single = GATSearchEngine(GATIndex.build(db, CONFIG), config=SCALAR)
    rankings = [
        [(r.trajectory_id, r.distance) for r in single.execute(query, K).ranked]
        for query in queries
    ]
    engines = [GATSearchEngine(shard, config=SCALAR) for shard in sharded.shards]
    centroids = sharded.shard_centroids
    counters = []
    for query in queries:
        qx = sum(p.x for p in query) / len(query)
        qy = sum(p.y for p in query) / len(query)
        nearest_first = sorted(
            range(N_SHARDS),
            key=lambda sid: math.hypot(centroids[sid][0] - qx, centroids[sid][1] - qy),
        )
        merged = TopKCollector(K)
        stats = SearchStats.merged(
            [
                engines[sid]
                .execute(
                    query,
                    K,
                    external_threshold=merged.kth_distance,
                    result_sink=merged.offer,
                )
                .stats
                for sid in nearest_first
            ]
        )
        counters.append((stats.tas_pruned, stats.apl_pruned, stats.mib_pruned))
    return rankings, counters


@pytest.mark.parametrize(
    "fault_policy",
    [None, FaultPolicy(deadline_s=60.0, max_retries=2)],
    ids=["no-policy", "policy"],
)
@pytest.mark.parametrize("n_replicas", [1, 2])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_supervised_parity_with_no_faults(
    db, queries, executor, n_replicas, fault_policy
):
    with _build(db) as sharded:
        rankings, counters = _scalar_oracle(db, sharded, queries)
        with ShardedQueryService(
            sharded,
            engine_config=SCALAR,
            executor=executor,
            n_replicas=n_replicas,
            result_cache_size=0,
            fault_policy=fault_policy,
        ) as service:
            responses = service.search_many(queries, k=K)
            stats = service.stats()
            # Nothing leased or registered outlives the batch.
            router = service.placement.router
            for shard_id in range(N_SHARDS):
                assert router.in_flight(shard_id) == (0,) * n_replicas
            if executor == "process":
                pool = service._executor
                assert sorted(pool._free_slots) == list(range(pool.N_SLOTS))
            assert not service._shared
            assert not service._trace_roots
    assert _rankings(responses) == rankings
    if executor == "serial":
        assert [
            (r.stats.tas_pruned, r.stats.apl_pruned, r.stats.mib_pruned)
            for r in responses
        ] == counters
    assert all(r.complete for r in responses)
    assert all(
        r.shards_answered == N_SHARDS and r.shards_total == N_SHARDS
        for r in responses
    )
    assert stats.task_retries == 0
    assert stats.task_hedges == 0
    assert stats.partial_responses == 0


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------
def test_transient_error_is_retried_to_full_coverage(db, queries):
    """max_errors=1: exactly the first read fails, the retry succeeds —
    one counted retry, exact rankings, full coverage."""
    truth = _truth(db, queries)
    injector = FaultInjector(FaultRule(error_rate=1.0, max_errors=1), seed=0)
    with _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    ) as sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=2),
        ) as service:
            responses = service.search_many(queries, k=K)
            stats = service.stats()
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)
    assert stats.task_retries == 1
    assert injector.errors_injected == 1


def test_dead_shard_degrades_to_partial_coverage(db, queries):
    sharded, injector = _shard_down_build(db, FaultRule(error_rate=1.0))
    with sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
        ) as service:
            responses = service.search_many(queries, k=K)
            stats = service.stats()
    assert all(not r.complete for r in responses)
    assert all(
        r.shards_answered == N_SHARDS - 1 and r.shards_total == N_SHARDS
        for r in responses
    )
    assert stats.partial_responses == len(queries)
    assert injector.errors_injected >= len(queries)


def test_allow_partial_false_raises_contextual_error(db, queries):
    sharded, _ = _shard_down_build(db, FaultRule(error_rate=1.0))
    with sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=0,
            fault_policy=FaultPolicy(max_retries=1, allow_partial=False),
        ) as service:
            with pytest.raises(ShardTaskError) as excinfo:
                service.search(queries[0], k=K)
    err = excinfo.value
    assert err.shard_id in range(N_SHARDS)
    assert err.replica == 0
    assert isinstance(err.original, InjectedDiskError)
    assert f"shard {err.shard_id}" in str(err)
    assert f"k={K}" in str(err)


def test_partial_responses_are_never_cached(db, queries):
    """A degraded answer must not poison the result cache: once the disk
    heals, the same request gets a fresh, complete response."""
    sharded, injector = _shard_down_build(db, FaultRule(error_rate=1.0))
    with sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            result_cache_size=32,
            fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
        ) as service:
            degraded = service.search(queries[0], k=K)
            assert not degraded.complete
            injector.enabled = False
            healed = service.search(queries[0], k=K)
            assert healed.complete
            assert healed.shards_answered == N_SHARDS
            # And *complete* responses do cache: the third ask is a hit.
            again = service.search(queries[0], k=K)
            assert again.complete
            assert service.stats().result_cache_hits >= 1


# ----------------------------------------------------------------------
# Deadlines (stalled shard)
# ----------------------------------------------------------------------
def test_deadline_abandons_stalled_shard(db, queries):
    sharded, injector = _shard_down_build(db, FaultRule(stall_rate=1.0))
    try:
        with sharded:
            with ShardedQueryService(
                sharded,
                executor="thread",
                result_cache_size=0,
                fault_policy=FaultPolicy(
                    deadline_s=0.25, max_retries=0, allow_partial=True
                ),
            ) as service:
                response = service.search(queries[0], k=K)
                # Drain the abandoned attempt before the pool shuts down.
                injector.lift_stalls()
        assert not response.complete
        assert response.shards_answered == N_SHARDS - 1
        assert response.shards_total == N_SHARDS
        assert injector.stalls_injected >= 1
    finally:
        injector.lift_stalls()


# ----------------------------------------------------------------------
# Hedging + replica failover
# ----------------------------------------------------------------------
def test_hedge_fires_on_slow_replica_and_stays_exact(db, queries):
    truth = _truth(db, queries)
    with _build(
        db, disk_factory=lambda: SimulatedDisk(read_latency_s=0.02)
    ) as sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            n_replicas=2,
            result_cache_size=0,
            replica_disk_factory=lambda: SimulatedDisk(),
            fault_policy=FaultPolicy(max_retries=2, hedge_after_s=0.005),
        ) as service:
            responses = service.search_many(queries, k=K)
            stats = service.stats()
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)
    assert stats.task_hedges >= 1


def test_failover_to_clean_replicas_reaches_full_coverage(db, queries):
    """Every primary disk errors constantly; the replica bank is clean.
    Retries re-lease through the router, so coverage must be full and
    rankings exact."""
    truth = _truth(db, queries)
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    with _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    ) as sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            n_replicas=2,
            result_cache_size=0,
            replica_disk_factory=lambda: SimulatedDisk(),
            fault_policy=FaultPolicy(max_retries=4),
        ) as service:
            responses = service.search_many(queries, k=K)
    assert _rankings(responses) == truth
    assert all(r.complete for r in responses)


def test_router_in_flight_drains_after_total_failure(db, queries):
    """Both copies of every shard error on every read: the batch comes
    back all-partial (coverage zero) and — the leak regression — every
    router lease taken by the failed and retried attempts is back."""
    injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
    replica_injector = FaultInjector(FaultRule(error_rate=1.0), seed=1)
    with _build(
        db, disk_factory=lambda: SimulatedDisk(fault_injector=injector)
    ) as sharded:
        with ShardedQueryService(
            sharded,
            executor="thread",
            n_replicas=2,
            result_cache_size=0,
            replica_disk_factory=lambda: SimulatedDisk(
                fault_injector=replica_injector
            ),
            fault_policy=FaultPolicy(max_retries=1, allow_partial=True),
        ) as service:
            responses = service.search_many(queries, k=K)
            assert all(r.shards_answered == 0 for r in responses)
            for shard_id in range(N_SHARDS):
                assert service.placement.router.in_flight(shard_id) == (0, 0)


def test_breaker_config_requires_strategy_name(db):
    """A prebuilt router already owns its health tracker; passing a
    BreakerConfig alongside one would silently not apply."""
    from repro.shard import BreakerConfig
    from repro.shard.replicas import RoundRobinRouter

    with _build(db) as sharded:
        with pytest.raises(ValueError, match="strategy name"):
            ShardedQueryService(
                sharded,
                executor="serial",
                n_replicas=2,
                replica_router=RoundRobinRouter(N_SHARDS, 2),
                breaker=BreakerConfig(),
            )


# ----------------------------------------------------------------------
# Leak regressions on the process backend
# ----------------------------------------------------------------------
def test_failed_batch_build_releases_threshold_slots(db, queries, monkeypatch):
    """A mid-batch failure while *building* fan-outs used to strand the
    earlier queries' threshold slots; every acquired slot must be free
    again after the raise.  (The pool is lazy, so nothing ever spawns.)"""
    with _build(db) as sharded:
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            executor = service._executor
            real_fanout_tasks = service._fanout_tasks
            calls = {"n": 0}

            def exploding_fanout_tasks(request, group, threshold_slot=None):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise RuntimeError("boom while building fan-out")
                return real_fanout_tasks(request, group, threshold_slot)

            monkeypatch.setattr(service, "_fanout_tasks", exploding_fanout_tasks)
            with pytest.raises(RuntimeError, match="boom"):
                service.search_many(queries[:2], k=K)
            assert sorted(executor._free_slots) == list(range(executor.N_SLOTS))
