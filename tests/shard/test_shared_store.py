"""The ``store='shared'`` knob: exactness first, lifecycle second.

The shared-memory columnar store must be invisible to every result a
user can observe — rankings byte-identical on every backend, and the
full stats block (pruning counters, disk reads/pages, cache hits)
identical wherever the object path itself is deterministic (the serial
backend; concurrent backends' work counters depend on pruning timing
for *both* stores, see :mod:`repro.shard.service`).

Also here: the refresh-coalescing regression tests — an insert burst
under the process backend must cost exactly one worker-pool re-init,
and a no-op refresh must cost zero.
"""

import dataclasses

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import EngineConfig
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.model.trajectory import ActivityTrajectory
from repro.shard import ShardedGATIndex, ShardedQueryService
from repro.storage import shm

K = 5
N_QUERIES = 4


def _make_db(seed=7, n_users=30, name="shared-store-db"):
    config = GeneratorConfig(
        n_users=n_users,
        n_venues=80,
        vocabulary_size=60,
        width_km=8.0,
        height_km=8.0,
        n_hotspots=3,
        checkins_per_user_mean=8.0,
        activities_per_checkin_mean=2.0,
        seed=seed,
    )
    return CheckInGenerator(config).generate(name=name)


@pytest.fixture(scope="module")
def module_db():
    return _make_db()


@pytest.fixture(scope="module")
def queries(module_db):
    gen = QueryWorkloadGenerator(
        module_db,
        WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=41),
    )
    return gen.queries(N_QUERIES)


def _run(db, queries, store, executor, n_shards=3, n_replicas=1):
    sharded = ShardedGATIndex.build(db, n_shards=n_shards, store=store)
    ranked, stats = [], []
    try:
        with ShardedQueryService(
            sharded, executor=executor, result_cache_size=0, n_replicas=n_replicas
        ) as service:
            for i, query in enumerate(queries):
                response = service.search(query, k=K, order_sensitive=(i % 2 == 1))
                ranked.append(
                    [(r.trajectory_id, r.distance) for r in response.results]
                )
                stats.append(dataclasses.asdict(response.stats))
    finally:
        sharded.close()
    return ranked, stats


def test_serial_parity_is_total(module_db, queries):
    """Serial is deterministic for both stores, so *everything* must
    match: rankings, pruning counters, disk accounting, cache numbers."""
    obj = _run(module_db, queries, "object", "serial")
    shr = _run(module_db, queries, "shared", "serial")
    assert shr[0] == obj[0]
    assert shr[1] == obj[1]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_rankings_identical_on_concurrent_backends(module_db, queries, executor):
    expected = _run(module_db, queries, "object", "serial")[0]
    got = _run(module_db, queries, "shared", executor)[0]
    assert got == expected


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_replicated_service_parity(module_db, queries, executor):
    expected = _run(module_db, queries, "object", "serial")[0]
    got = _run(module_db, queries, "shared", executor, n_replicas=2)[0]
    assert got == expected


def test_engine_config_respected_under_shared_store(module_db, queries):
    """The store knob composes with engine configs (scalar kernel here)."""
    config = EngineConfig(kernel="scalar")
    expected = None
    for store in ("object", "shared"):
        sharded = ShardedGATIndex.build(module_db, n_shards=2, store=store)
        try:
            with ShardedQueryService(
                sharded, engine_config=config, executor="serial"
            ) as service:
                got = [
                    (r.trajectory_id, r.distance)
                    for r in service.search(queries[0], k=K).results
                ]
        finally:
            sharded.close()
        if expected is None:
            expected = got
        else:
            assert got == expected


def test_invalid_store_name_rejected(module_db):
    with pytest.raises(ValueError, match="store"):
        ShardedGATIndex.build(module_db, n_shards=2, store="mmap")


def test_index_close_unlinks_store(module_db):
    sharded = ShardedGATIndex.build(module_db, n_shards=2, store="shared")
    assert shm.active_segments() != []
    sharded.close()
    assert shm.active_segments() == []
    sharded.close()  # idempotent


def test_object_store_has_no_segments(module_db):
    with ShardedGATIndex.build(module_db, n_shards=2, store="object") as sharded:
        assert sharded.store is None
        assert shm.active_segments() == []


def _insert_burst(db, n=5, start=10_000):
    extra = _make_db(seed=991, n_users=n, name="burst")
    return [
        ActivityTrajectory(start + i, tr.points)
        for i, tr in enumerate(extra.trajectories[:n])
    ]


@pytest.mark.parametrize("store", ["object", "shared"])
def test_insert_burst_costs_one_pool_reinit(store, queries):
    """Regression test for refresh amplification: every insert bumps the
    composite version and triggers a ``refresh``, but the worker pool
    must be rebuilt **once** at the next query, not once per insert."""
    db = _make_db(seed=13)
    sharded = ShardedGATIndex.build(db, n_shards=2, store=store)
    try:
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            executor = service._executor
            service.search(queries[0], k=K)
            assert executor.pool_inits == 1
            for trajectory in _insert_burst(db):
                sharded.insert_trajectory(trajectory)
            service.search(queries[1], k=K)
            assert executor.pool_inits == 2
            # Steady state: further queries with no mutation stay on the
            # same pool.
            service.search(queries[2], k=K)
            assert executor.pool_inits == 2
    finally:
        sharded.close()


def test_noop_refresh_never_reinits(queries):
    """A refresh carrying an equal spec (version probe with no mutation,
    or a shared-store sync with no growth) must not tear the pool down."""
    db = _make_db(seed=17)
    sharded = ShardedGATIndex.build(db, n_shards=2, store="shared")
    try:
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            executor = service._executor
            service.search(queries[0], k=K)
            assert executor.pool_inits == 1
            for _ in range(3):
                executor.refresh(service._make_spec())
            service.search(queries[1], k=K)
            assert executor.pool_inits == 1
    finally:
        sharded.close()


def test_post_insert_rankings_match_object_store(queries):
    """After an insert burst the attached fleet (base + delta) must rank
    exactly like the object-store fleet over the same grown database."""
    results = {}
    for store in ("object", "shared"):
        db = _make_db(seed=13)
        sharded = ShardedGATIndex.build(db, n_shards=2, store=store)
        try:
            with ShardedQueryService(
                sharded, executor="process", result_cache_size=0
            ) as service:
                for trajectory in _insert_burst(db):
                    sharded.insert_trajectory(trajectory)
                results[store] = [
                    [
                        (r.trajectory_id, r.distance)
                        for r in service.search(q, k=K).results
                    ]
                    for q in queries
                ]
        finally:
            sharded.close()
    assert results["shared"] == results["object"]
