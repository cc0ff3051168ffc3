"""Chaos tests for the self-healing process fleet.

:func:`kill_fleet_workers` SIGKILLs live workers; the
:class:`ProcessShardExecutor` must retire the broken pool, re-initialise
from its spec, replay the dead futures, and keep serving exact results.
Also here: the shutdown-while-degraded regression — ``close()`` after a
pool break must neither raise nor leak threshold slots.
"""

import copy

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.faults import kill_fleet_workers
from repro.index.gat.index import GATConfig
from repro.shard import ShardedGATIndex, ShardedQueryService

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


@pytest.fixture()
def fleet(db):
    """A process-backend service, yielding (service, executor)."""
    sharded = ShardedGATIndex.build(db, n_shards=N_SHARDS, config=CONFIG)
    with ShardedQueryService(
        sharded, executor="process", result_cache_size=0
    ) as service:
        yield service, service._executor


def _truth(db, queries):
    sharded = ShardedGATIndex.build(db, n_shards=N_SHARDS, config=CONFIG)
    with ShardedQueryService(
        sharded, executor="serial", result_cache_size=0
    ) as service:
        return [
            [(r.trajectory_id, r.distance) for r in resp.results]
            for resp in service.search_many(queries, k=K)
        ]


def test_kill_cold_fleet_is_usage_error(fleet):
    """Workers spawn lazily; killing before warm-up is a misuse of the
    chaos helper, reported loudly instead of silently killing nothing."""
    service, executor = fleet
    assert executor.worker_pids() == []
    with pytest.raises(RuntimeError, match="warm the pool first"):
        kill_fleet_workers(executor, count=1)


def test_warm_up_reports_live_worker_pids(fleet):
    service, executor = fleet
    pids = executor.warm_up()
    assert pids
    assert sorted(pids) == sorted(executor.worker_pids())


def test_killed_worker_heals_and_results_stay_exact(db, queries, fleet):
    service, executor = fleet
    truth = _truth(db, queries)
    executor.warm_up()
    victims = kill_fleet_workers(executor, count=1, seed=11)
    assert len(victims) == 1
    responses = service.search_many(queries, k=K)
    got = [
        [(r.trajectory_id, r.distance) for r in resp.results]
        for resp in responses
    ]
    assert got == truth
    assert executor.pool_repairs >= 1
    assert all(r.complete for r in responses)


def test_whole_fleet_killed_heals_and_serves(db, queries, fleet):
    service, executor = fleet
    truth = _truth(db, queries)
    pids = executor.warm_up()
    kill_fleet_workers(executor, count=len(pids), seed=3)
    responses = service.search_many(queries, k=K)
    got = [
        [(r.trajectory_id, r.distance) for r in resp.results]
        for resp in responses
    ]
    assert got == truth
    assert executor.pool_repairs >= 1
    # The healed fleet runs on fresh workers.
    survivors = executor.worker_pids()
    assert survivors and not set(survivors) & set(pids)


def test_close_while_degraded_neither_raises_nor_leaks_slots(fleet):
    """Regression: close() used to propagate BrokenProcessPool from the
    pool shutdown and strand acquired mp.Value slots when the fleet died
    with work outstanding."""
    service, executor = fleet
    pids = executor.warm_up()
    slot = executor.acquire_slot()
    assert slot is not None
    kill_fleet_workers(executor, count=len(pids), seed=5)
    executor.release_slot(slot)
    executor.close()  # must not raise, even over a broken pool
    executor.close()  # idempotent
    assert sorted(executor._free_slots) == list(range(executor.N_SLOTS))


def test_release_slot_tolerates_duplicates(fleet):
    """Failure paths can race a supervisor retry into releasing the same
    threshold slot twice; the free list must never grow past N_SLOTS."""
    service, executor = fleet
    slot = executor.acquire_slot()
    executor.release_slot(slot)
    executor.release_slot(slot)
    executor.release_slot(None)  # the no-slot sentinel is a no-op
    assert len(executor._free_slots) == executor.N_SLOTS
    assert sorted(set(executor._free_slots)) == sorted(executor._free_slots)
