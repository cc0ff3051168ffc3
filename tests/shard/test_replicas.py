"""Replicas: the round-robin router, byte-identical parity with the
single-copy service, first-response failover, replica bank lifecycle,
and insert resync."""

import copy

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.index.gat.index import GATConfig
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.core.engine import GATSearchEngine
from repro.faults import FaultInjector, FaultRule
from repro.index.gat.index import GATIndex
from repro.shard import (
    FaultPolicy,
    ReplicaRouter,
    ShardedGATIndex,
    ShardedQueryService,
)
from repro.storage.disk import SimulatedDisk

CONFIG = GATConfig(depth=4, memory_levels=3)


def _queries(db, n=6, seed=17):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=seed)
    )
    return gen.queries(n)


def _rankings(responses):
    return [
        [(r.trajectory_id, r.distance) for r in resp.results] for resp in responses
    ]


def _banks_at_primary_version(service, sharded):
    """Every bank's engines index the primary shards' current version."""
    return all(
        engine.index.version == shard.version
        for bank in service.placement.banks
        for engine, shard in zip(bank, sharded.shards)
    )


# ----------------------------------------------------------------------
# The router (pure units; breaker integration: test_replica_health.py)
# ----------------------------------------------------------------------
class TestReplicaRouters:
    def test_round_robin_cycles_per_shard(self):
        router = ReplicaRouter(n_shards=2, n_replicas=3)
        assert [router.route(0) for _ in range(5)] == [0, 1, 2, 0, 1]
        # Each shard cycles independently.
        assert router.route(1) == 0

    def test_avoid_skips_the_replaced_copy(self):
        router = ReplicaRouter(n_shards=1, n_replicas=2)
        assert router.route(0) == 0
        assert router.route(0) == 1
        # The cursor is back on 0 — the copy this retry replaces.
        assert router.route(0, avoid=0) == 1
        # ...unless it is the only copy there is.
        assert ReplicaRouter(n_shards=1, n_replicas=1).route(0, avoid=0) == 0

    def test_rejects_an_empty_fleet(self):
        with pytest.raises(ValueError):
            ReplicaRouter(n_shards=2, n_replicas=0)
        with pytest.raises(ValueError):
            ReplicaRouter(n_shards=0, n_replicas=2)


# ----------------------------------------------------------------------
# Parity: replication must be invisible in the rankings
# ----------------------------------------------------------------------
class TestReplicatedParity:
    @pytest.fixture(scope="class")
    def reference(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=3, config=CONFIG)
        queries = _queries(tiny_db)
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            atsq = _rankings(service.search_many(queries, k=4))
            oatsq = _rankings(service.search_many(queries, k=4, order_sensitive=True))
        return sharded, queries, atsq, oatsq

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_rankings_byte_identical(self, reference, executor):
        sharded, queries, atsq, oatsq = reference
        with ShardedQueryService(
            sharded, executor=executor, n_replicas=2, result_cache_size=0
        ) as service:
            assert _rankings(service.search_many(queries, k=4)) == atsq
            assert (
                _rankings(service.search_many(queries, k=4, order_sensitive=True))
                == oatsq
            )

    def test_three_replicas_serial(self, reference):
        sharded, queries, atsq, _ = reference
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=3,
            result_cache_size=0,
        ) as service:
            assert _rankings(service.search_many(queries, k=4)) == atsq

    def test_batched_explain_parity(self, reference):
        sharded, queries, _, _ = reference
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            batched = service.search_many(queries[:3], k=3, explain=True)
            for query, response in zip(queries[:3], batched):
                single = service.search(query, k=3, explain=True)
                assert [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in response.results
                ] == [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in single.results
                ]
                assert all(r.matches is not None for r in response.results)


class TestReplicatedProcessBackend:
    def test_process_parity_and_lease_drain(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        queries = _queries(tiny_db, n=3)
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as base:
            expected = _rankings(base.search_many(queries, k=3))
        with ShardedQueryService(
            sharded,
            executor="process",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            assert _rankings(service.search_many(queries, k=3)) == expected
            # Every threshold-slot lease is back once the fan-out returns.
            pool = service._executor
            assert sorted(pool._free_slots) == list(range(pool.N_SLOTS))


class TestFirstResponseFailover:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_first_search_fails_over_to_clean_siblings(self, tiny_db, executor):
        """Every primary disk errors on every read, the siblings are
        clean, the policy is the default: the retry must land on the
        sibling, so the *first* response is already complete — not only
        the ones after three failures have opened the breaker — and
        every ranking is the single-index engine's."""
        single = GATSearchEngine(GATIndex.build(tiny_db, CONFIG))
        queries = _queries(tiny_db, n=4)
        injector = FaultInjector(FaultRule(error_rate=1.0), seed=0)
        sharded = ShardedGATIndex.build(
            tiny_db,
            n_shards=2,
            config=CONFIG,
            disk_factory=lambda: SimulatedDisk(fault_injector=injector),
        )
        with ShardedQueryService(
            sharded,
            executor=executor,
            n_replicas=2,
            result_cache_size=0,
            replica_disk_factory=SimulatedDisk,
            fault_policy=FaultPolicy(),
        ) as service:
            for query in queries:
                response = service.search(query, k=4)
                assert (response.shards_answered, response.shards_total) == (2, 2)
                assert _rankings([response]) == [
                    [(r.trajectory_id, r.distance) for r in single.execute(query, 4).ranked]
                ]
        assert injector.errors_injected > 0


# ----------------------------------------------------------------------
# Mechanics: replicas really serve, inserts resync
# ----------------------------------------------------------------------
class TestReplicaMechanics:
    def test_replica_bank_actually_serves(self, tiny_db):
        """Round-robin over 2 replicas: consecutive fan-outs alternate
        banks, so the replica copies' own disks must see reads."""
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        query = _queries(tiny_db, n=1)[0]
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            service.search(query, k=3)  # replica 0 (the primary bank)
            service.search(query, k=3)  # replica 1
            replica_reads = sum(
                engine.index.disk.stats.reads for engine in service.placement.banks[1]
            )
            assert replica_reads > 0

    def test_default_replica_disks_clone_primary_cost_model(self, tiny_db):
        sharded = ShardedGATIndex.build(
            tiny_db,
            n_shards=2,
            config=CONFIG,
            disk_factory=lambda: SimulatedDisk(
                read_latency_s=0.001, concurrent_reads=2
            ),
        )
        for replica in sharded.replicate():
            assert replica.disk.read_latency_s == 0.001
            assert replica.disk.concurrent_reads == 2
            assert replica.disk is not sharded.shards[0].disk

    def test_insert_resyncs_replica_banks(self, tiny_db):
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        query = _queries(db, n=1)[0]
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            service.search(query, k=3)
            tid = max(tr.trajectory_id for tr in db) + 1
            new_tr = ActivityTrajectory(
                tid,
                [TrajectoryPoint(p.x, p.y, frozenset(p.activities)) for p in query],
            )
            sharded.insert_trajectory(new_tr)
            # Two searches so round-robin provably hits the rebuilt
            # replica bank (not just the always-fresh primary) for the
            # owning shard; a stale replica could not return the new id.
            for _ in range(2):
                response = service.search(query, k=3)
                assert response.results[0].trajectory_id == tid
                assert response.results[0].distance == 0.0
                assert response.stats.rounds > 0  # recomputed, never stale
            assert _banks_at_primary_version(service, sharded)

    def test_result_cache_survives_replication(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        query = _queries(tiny_db, n=1)[0]
        with ShardedQueryService(
            sharded, executor="serial", n_replicas=2
        ) as service:
            service.search(query, k=3)
            repeat = service.search(query, k=3)
            assert repeat.stats.rounds == 0  # served from the result cache
            stats = service.stats()
            assert stats.result_cache_hits == 1
            assert stats.queries == 2

    def test_validation_errors(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        with pytest.raises(ValueError):
            ShardedQueryService(sharded, n_replicas=0)
        with pytest.raises(ValueError, match="in-process only"):
            ShardedQueryService(
                sharded,
                n_replicas=2,
                executor="process",
                replica_disk_factory=SimulatedDisk,
            )

    def test_single_replica_degenerates_to_base(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        queries = _queries(tiny_db, n=3)
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as base:
            expected = _rankings(base.search_many(queries, k=3))
        with ShardedQueryService(
            sharded, executor="serial", n_replicas=1, result_cache_size=0
        ) as service:
            assert _rankings(service.search_many(queries, k=3)) == expected
            assert len(service.placement.banks) == 1

    def test_close_is_idempotent_and_closes_banks(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(
            sharded, executor="thread", n_replicas=2, result_cache_size=0
        )
        service.search(_queries(tiny_db, n=1)[0], k=2)
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.search(_queries(tiny_db, n=1)[0], k=2)


class TestProcessCostModelCarryOver:
    def test_spec_ships_concurrent_reads_to_workers(self, tiny_db):
        """The bounded-device model must survive the process boundary:
        worker disks rebuilt from the spec carry the parent disks'
        command depth, not an unbounded default — and worker engines the
        service's ``engine_config``."""
        from repro.core.engine import EngineConfig
        from repro.shard import build_shard_engine

        scalar = EngineConfig(kernel="scalar")
        sharded = ShardedGATIndex.build(
            tiny_db,
            n_shards=2,
            config=CONFIG,
            disk_factory=lambda: SimulatedDisk(
                read_latency_s=0.001, concurrent_reads=1
            ),
        )
        service = ShardedQueryService(
            sharded, engine_config=scalar, executor="process"
        )
        try:
            spec = service._make_spec()
            assert spec.concurrent_reads == 1
            assert spec.read_latency_s == 0.001
            worker_engine = build_shard_engine(spec, 0)
            assert worker_engine.config == scalar
            assert worker_engine.index.disk.concurrent_reads == 1
            assert worker_engine.index.disk.read_latency_s == 0.001
        finally:
            service.close()


class TestResyncOrdering:
    def test_banks_resync_before_version_publish(self, tiny_db):
        """Regression: the replica banks must be rebuilt *before* the
        service publishes the fresh _index_version — otherwise a
        concurrent search could observe the new version, skip the
        resync, and lease a stale (pre-insert) replica engine."""
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        query = _queries(db, n=1)[0]
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            service.search(query, k=2)
            old_version = service._front.version
            observed = []
            original = service.placement.resync

            def spying_resync():
                observed.append(service._front.version)
                return original()

            service.placement.resync = spying_resync
            tid = max(tr.trajectory_id for tr in db) + 1
            sharded.insert_trajectory(
                ActivityTrajectory(
                    tid,
                    [
                        TrajectoryPoint(p.x, p.y, frozenset(p.activities))
                        for p in query
                    ],
                )
            )
            service.search(query, k=2)
            # The resync ran, and it ran while the service still showed
            # the pre-insert version (publish comes after).
            assert observed == [old_version]
            assert service._front.version == sharded.version
            assert _banks_at_primary_version(service, sharded)


class TestResyncStatsBaselines:
    def test_cache_hit_rates_stay_valid_across_resync(self, tiny_db):
        """Regression: rebuilding the replica banks discards their cache
        counters, so the stats baselines must shed them too.  Pre-fix,
        stats() diffed a shrunken "now" against a baseline still holding
        the vanished counters, yielding hit-rate deltas that were
        negative (clamped to a bogus 0.0) or above 1.0 depending on the
        traffic mix; with heavy pre-reset warm traffic the post-resync
        warm rates collapsed to exactly 0.0."""
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        queries = _queries(db)
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            # Heavy warm traffic so the replica caches accumulate big
            # counters *before* the baselines are snapshotted by reset.
            for _ in range(6):
                service.search_many(queries, k=3)
            service.reset_stats()
            service.search_many(queries[:2], k=3)  # warm: high real hit rate
            tid = max(tr.trajectory_id for tr in db) + 1
            query = queries[0]
            sharded.insert_trajectory(
                ActivityTrajectory(
                    tid,
                    [
                        TrajectoryPoint(p.x, p.y, frozenset(p.activities))
                        for p in query
                    ],
                )
            )
            service.search_many(queries[:2], k=3)  # triggers the bank resync
            stats = service.stats()
            # The warm traffic really hit the caches: the rates must be
            # positive and within [0, 1] — never the clamped 0.0 (or the
            # >1.0 overshoot) the stale baselines produced.
            assert 0.0 < stats.hicl_cache_hit_rate <= 1.0
            assert 0.0 < stats.apl_cache_hit_rate <= 1.0


class TestOverflowInsertAcrossBanks:
    def test_every_bank_serves_fresh_after_overflow_rebuild(self, tiny_db):
        """Regression: an overflow insert replaces the owning shard's
        GATIndex object.  Bank 0 holds the primary shards' engines,
        which must be rebound — otherwise round-robin would
        alternate fresh (replica) and stale (primary) rankings for the
        same query."""
        from repro.core.query import Query, QueryPoint

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        box = db.bounding_box
        anchor = next(p for tr in db for p in tr if p.activities)
        tid = max(tr.trajectory_id for tr in db) + 1
        trajectory = ActivityTrajectory(
            tid,
            [
                TrajectoryPoint(
                    box.max_x + 2.0, box.max_y + 2.0, frozenset(anchor.activities)
                )
            ],
        )
        query = Query(
            [
                QueryPoint(
                    trajectory[0].x,
                    trajectory[0].y,
                    frozenset(list(trajectory[0].activities)[:1]),
                )
            ]
        )
        with ShardedQueryService(
            sharded,
            executor="serial",
            n_replicas=2,
            result_cache_size=0,
        ) as service:
            service.search(query, k=1)
            sharded.insert_trajectory(trajectory)
            # Four searches: round-robin provably cycles both banks twice
            # for the owning shard; every answer must be the newcomer.
            for _ in range(4):
                response = service.search(query, k=1)
                assert response.results[0].trajectory_id == tid
                assert response.results[0].distance == 0.0
            owner = sharded.router.shard_of(tid)
            assert service.placement.banks[0][owner].index is sharded.shards[owner]
