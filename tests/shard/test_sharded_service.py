"""ShardedQueryService behaviour: cross-shard invalidation, aggregated
stats, executor lifecycle.  (The result-cache and use-after-close contract
it shares with QueryService lives in tests/service/test_service_contract.py.)"""

import copy

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.core.query import Query, QueryPoint
from repro.shard import ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

CONFIG = GATConfig(depth=4, memory_levels=3)


@pytest.fixture()
def db(tiny_db):
    # Mutating tests get their own copy; the session fixture stays pristine.
    return copy.deepcopy(tiny_db)


def _query_for(db, seed=17):
    gen = QueryWorkloadGenerator(
        db, WorkloadConfig(n_query_points=2, n_activities_per_point=2, seed=seed)
    )
    return gen.query()


def _perfect_match_insert(db, query_points):
    """A fresh trajectory that matches *query_points* at distance zero."""
    tid = max(tr.trajectory_id for tr in db) + 1
    return ActivityTrajectory(
        tid, [TrajectoryPoint(p.x, p.y, frozenset(p.activities)) for p in query_points]
    )


class TestResultCache:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_insert_into_any_shard_invalidates(self, db, executor):
        """Cross-shard invalidation: the insert lands on *one* shard, yet
        every cached result — whichever shards produced it — is dropped,
        and the recomputed answer sees the new trajectory.  With the
        process backend this also exercises the worker-snapshot refresh
        (stale workers could never return the new trajectory)."""
        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        with ShardedQueryService(sharded, executor=executor) as service:
            query = _query_for(db)
            service.search(query, k=3)
            cached = service.search(query, k=3)
            assert cached.stats.rounds == 0

            new_tr = _perfect_match_insert(db, list(query))
            sharded.insert_trajectory(new_tr)

            refreshed = service.search(query, k=3)
            assert refreshed.stats.rounds > 0  # recomputed, not served stale
            assert refreshed.results[0].trajectory_id == new_tr.trajectory_id
            assert refreshed.results[0].distance == 0.0

    def test_direct_shard_insert_also_invalidates(self, db):
        """The composite version reads through to the shards, so even an
        insert issued against one shard's GATIndex (bypassing the facade)
        drops the cache."""
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        with ShardedQueryService(sharded, executor="serial") as service:
            query = _query_for(db)
            service.search(query, k=3)
            assert service.search(query, k=3).stats.rounds == 0

            new_tr = _perfect_match_insert(db, list(query))
            owner = sharded.router.shard_of(new_tr.trajectory_id)
            sharded.shards[owner].insert_trajectory(new_tr)

            assert service.search(query, k=3).stats.rounds > 0


class TestAggregatedStats:
    def test_disk_reads_sum_over_shards(self, db):
        sharded = ShardedGATIndex.build(
            db, n_shards=3, config=CONFIG, disk_factory=SimulatedDisk
        )
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            response = service.search(_query_for(db), k=4)
        per_shard_reads = sum(shard.disk.stats.reads for shard in sharded.shards)
        assert response.stats.disk_reads == per_shard_reads
        assert service.stats().disk_reads == response.stats.disk_reads

    def test_search_stats_merge_sums_every_field(self):
        """SearchStats.merge is field-driven: every declared counter sums,
        so a newly added counter can never silently vanish from the
        sharded aggregate."""
        from dataclasses import fields

        from repro.core.context import SearchStats

        a, b = SearchStats(), SearchStats()
        for i, f in enumerate(fields(SearchStats)):
            setattr(a, f.name, i + 1)
            setattr(b, f.name, 100 * (i + 1))
        total = SearchStats.merged([a, b])
        for i, f in enumerate(fields(SearchStats)):
            assert getattr(total, f.name) == 101 * (i + 1), f.name

    def test_shared_threshold_never_increases_work(self, db):
        """The distributed-top-k threshold only ever *prunes*: a fan-out
        query's merged counters are bounded by running each shard engine
        standalone (each shard re-proving termination alone), while every
        shard still contributes at least one retrieval round."""
        from repro.core.context import SearchStats
        from repro.core.engine import GATSearchEngine

        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        query = _query_for(db)
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            merged = service.search(query, k=4).stats
        standalone = SearchStats.merged(
            [
                GATSearchEngine(shard, apl_cache_size=0).execute(query, 4).stats
                for shard in sharded.shards
            ]
        )
        assert merged.rounds >= 3  # every shard ran
        for field in (
            "cells_popped",
            "candidates_retrieved",
            "validated",
            "distance_computations",
        ):
            assert 0 < getattr(merged, field) <= getattr(standalone, field), field

    def test_service_counts_queries_and_cache_rates(self, db):
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        with ShardedQueryService(sharded, executor="thread") as service:
            queries = [_query_for(db, seed=s) for s in (1, 2, 3)]
            service.search_many(queries, k=3)
            service.search_many(queries, k=3)  # all hits
            stats = service.stats()
        assert stats.queries == 6
        assert stats.result_cache_hits == 3
        assert 0.0 <= stats.apl_cache_hit_rate <= 1.0
        assert stats.latency_p95_s >= stats.latency_p50_s >= 0.0
        assert stats.qps > 0.0


class TestLifecycle:
    def test_close_is_idempotent(self, db):
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(sharded, executor="thread")
        service.search(_query_for(db), k=2)
        service.close()
        service.close()

    def test_unknown_executor_rejected(self, db):
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        with pytest.raises(ValueError):
            ShardedQueryService(sharded, executor="fiber")


class TestUseAfterClose:
    """Regression: the lazily created pools must not be silently
    resurrected by a search() on a closed service — pre-fix, a submission
    after close() leaked a brand-new pool that nothing ever shut down."""

    def test_thread_backend_raises(self, db):
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(
            sharded, executor="thread", result_cache_size=0
        )
        service.search(_query_for(db), k=2)
        service.close()
        with pytest.raises(RuntimeError, match="after close"):
            service.search(_query_for(db), k=2)

    def test_process_backend_raises(self, db):
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        # Never spawns workers: close() precedes the first search, and the
        # use-after-close check fires before pool creation.
        service = ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        )
        service.close()
        with pytest.raises(RuntimeError, match="after close"):
            service.search(_query_for(db), k=2)

    def test_executor_close_stays_idempotent(self, db):
        from repro.shard import ThreadShardExecutor

        executor = ThreadShardExecutor(lambda task: task, max_workers=2)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="after close"):
            executor.submit(None)


class TestSharedStateHammer:
    def test_concurrent_batches_race_shared_topk_registry(self, db):
        """Hammer the _shared group registry: many client threads register
        and pop groups while pool workers look their tasks' groups up.
        The lookup now locks (an unlocked dict read races the writers'
        rehash); rankings must stay byte-identical to a serial run."""
        import threading as _threading

        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        queries = [_query_for(db, seed=s) for s in range(6)]
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as serial:
            expected = [
                [(r.trajectory_id, r.distance) for r in resp.results]
                for resp in serial.search_many(queries, k=3)
            ]
        with ShardedQueryService(
            sharded, executor="thread", result_cache_size=0, max_workers=8
        ) as service:
            failures = []

            def client():
                try:
                    for _ in range(3):
                        responses = service.search_many(queries, k=3)
                        got = [
                            [(r.trajectory_id, r.distance) for r in resp.results]
                            for resp in responses
                        ]
                        if got != expected:
                            failures.append(got)
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [_threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures


class TestProcessSlotLifecycle:
    def test_run_failure_releases_every_leased_slot(self, db, monkeypatch):
        """An exception out of executor.submit() mid-batch must travel
        through the fan-out's cleanup and return every leased threshold
        slot and replica lease — otherwise a crashing batch permanently
        shrinks the pruning-slot pool and skews the router."""
        from repro.shard import ProcessShardExecutor

        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(
            sharded, executor="process", n_replicas=2, result_cache_size=0
        )
        executor = service._executor
        assert isinstance(executor, ProcessShardExecutor)
        real_submit = executor.submit
        leased_at_failure = []
        calls = 0

        def boom_on_fourth(task):
            nonlocal calls
            calls += 1
            if calls == 4:
                leased_at_failure.append(
                    executor.N_SLOTS - len(executor._free_slots)
                )
                raise RuntimeError("worker pool exploded")
            return real_submit(task)

        monkeypatch.setattr(executor, "submit", boom_on_fourth)
        queries = [_query_for(db, seed=s) for s in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="exploded"):
            service.search_many(queries, k=3)
        # One slot per pending query was genuinely leased at the failure...
        assert leased_at_failure == [3]
        # ...and every one of them came back despite the exception.
        assert sorted(executor._free_slots) == list(range(executor.N_SLOTS))
        assert calls == 6
        service.close()

    def test_slot_is_not_re_leased_under_an_abandoned_attempt(self, db):
        """Regression: a deadline-abandoned attempt keeps running in its
        worker and keeps publishing the *old* query's k-th distance into
        the threshold slot.  The slot used to go back the moment the
        fan-out returned; the free list is LIFO, so the very next query
        leased it and pruned against a foreign, too-small threshold.
        Gated fake futures stand in for the pool; no worker spawns."""
        import math
        from concurrent.futures import Future

        from repro.core.context import SearchStats
        from repro.core.results import SearchResult
        from repro.shard import FanoutSupervisor, FaultPolicy, ShardResult, ShardTask
        from repro.shard.executor import _SlotThreshold

        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(sharded, executor="process")
        executor = service._executor
        answer = ShardResult(0, (), SearchStats(), 0.0)
        stalled: Future = Future()  # shard 1's attempt: running until gated open

        def submit(task):
            if task.shard_id == 1:
                return stalled
            done: Future = Future()
            done.set_result(answer)
            return done

        slot = executor.acquire_slot()
        query = _query_for(db)
        supervisor = FanoutSupervisor(
            submit,
            FaultPolicy(deadline_s=0.05, max_retries=0),
            bind=lambda shard_id, avoid: 0,
            on_outcome=lambda shard_id, replica, ok: None,
        )
        (outcome,) = supervisor.run(
            [[ShardTask(sid, query, k=1, threshold_slot=slot) for sid in (0, 1)]]
        )
        assert sorted(outcome.results) == [0] and sorted(outcome.failures) == [1]
        assert outcome.in_flight == [stalled]
        # The abandoned attempt's worker-side handle on the slot.
        straggler = _SlotThreshold(executor._slots[slot], k=1)

        executor.release_slot(slot, after=outcome.in_flight)
        next_slot = executor.acquire_slot()
        assert next_slot != slot  # still held under the straggler
        straggler.offer(SearchResult(1, 0.5))
        assert executor._slots[next_slot].value == math.inf  # new lease untouched

        stalled.set_result(answer)  # the straggler finishes: now it goes back
        assert executor.acquire_slot() == slot
        assert executor._slots[slot].value == math.inf  # and resets on lease
        for leased in (slot, next_slot):
            executor.release_slot(leased)
        assert sorted(executor._free_slots) == list(range(executor.N_SLOTS))
        service.close()

    def test_slot_pool_exhaustion_returns_none(self, db):
        from repro.shard import ProcessShardExecutor

        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(sharded, executor="process")
        executor = service._executor
        slots = [executor.acquire_slot() for _ in range(executor.N_SLOTS)]
        assert None not in slots
        assert executor.acquire_slot() is None  # exhausted, not an error
        for slot in slots:
            executor.release_slot(slot)
        assert len(executor._free_slots) == executor.N_SLOTS
        service.close()


def _insert_burst(db, sharded, query, n=5):
    """Insert *n* fresh trajectories one by one — copies of existing ones
    under new ids, the last a perfect match for *query* — and return
    their ids.  Every insert moves the composite version."""
    inserted = []
    for i in range(n):
        if i == n - 1:
            new_tr = _perfect_match_insert(db, list(query))
        else:
            tid = max(tr.trajectory_id for tr in db) + 1
            new_tr = ActivityTrajectory(tid, db.trajectories[i].points)
        sharded.insert_trajectory(new_tr)
        inserted.append(new_tr.trajectory_id)
    return inserted


class TestProcessSnapshotRefresh:
    """Process workers serve a snapshot of the fleet; a mutation reaches
    them as a coalesced pool re-init from a fresh spec."""

    def test_insert_burst_costs_one_pool_reinit(self, db):
        """Regression test for refresh amplification: every insert bumps
        the composite version, but the worker pool must be rebuilt
        **once** at the next query, not once per insert."""
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        query = _query_for(db)
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            executor = service._executor
            service.search(query, k=3)
            assert executor.pool_inits == 1
            _insert_burst(db, sharded, query)
            service.search(query, k=3)
            assert executor.pool_inits == 2
            # Steady state: further queries with no mutation stay on the
            # same pool.
            service.search(query, k=3)
            assert executor.pool_inits == 2

    def test_noop_refresh_never_reinits(self, db):
        """A refresh carrying an equal spec (nothing mutated) must not
        tear the pool down."""
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        query = _query_for(db)
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            executor = service._executor
            service.search(query, k=3)
            assert executor.pool_inits == 1
            for _ in range(3):
                executor.refresh(service._make_spec())
            service.search(query, k=3)
            assert executor.pool_inits == 1

    def test_post_insert_rankings_match_scalar_single_index(self, db):
        """Workers warmed on the pre-insert snapshot must, after an insert
        burst, rank exactly like the scalar engine over one single index
        of the grown database."""
        scalar = EngineConfig(kernel="scalar")
        queries = [_query_for(db, seed=seed) for seed in (17, 18, 19, 20)]
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        with ShardedQueryService(
            sharded, engine_config=scalar, executor="process", result_cache_size=0
        ) as service:
            service.search(queries[0], k=5)
            inserted = _insert_burst(db, sharded, queries[0])
            got = [
                [(r.trajectory_id, r.distance) for r in response.results]
                for response in service.search_many(queries, k=5)
            ]
        single = GATSearchEngine(GATIndex.build(db, CONFIG), config=scalar)
        assert got == [
            [(r.trajectory_id, r.distance) for r in single.execute(q, 5).ranked]
            for q in queries
        ]
        assert inserted[-1] in [tid for tid, _ in got[0]]


class TestShardedBatchedExplain:
    def test_search_many_forwards_explain(self, db):
        """Regression: the sharded search_many dropped ``explain`` too."""
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        queries = [_query_for(db, seed=s) for s in (1, 2, 3)]
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            batched = service.search_many(queries, k=3, explain=True)
            assert all(resp.request.explain for resp in batched)
            for query, response in zip(queries, batched):
                single = service.search(query, k=3, explain=True)
                assert [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in response.results
                ] == [
                    (r.trajectory_id, r.distance, r.matches)
                    for r in single.results
                ]
                assert all(r.matches is not None for r in response.results)


class TestOverflowInsertEngineRefresh:
    @staticmethod
    def _outside_trajectory(db, sharded):
        """A fresh trajectory just past the global corner — outside every
        shard's (local) grid box, so inserting it forces the owning
        shard's overflow rebuild, which *replaces* the GATIndex object."""
        box = db.bounding_box
        anchor = next(p for tr in db for p in tr if p.activities)
        tid = max(tr.trajectory_id for tr in db) + 1
        point = TrajectoryPoint(
            box.max_x + 2.0, box.max_y + 2.0, frozenset(anchor.activities)
        )
        return ActivityTrajectory(tid, [point])

    def test_engines_rebound_after_overflow_rebuild(self, db):
        """Regression: an overflow insert swaps a rebuilt GATIndex into
        index.shards[sid]; the service's per-shard engine (built at
        construction) must be rebound to it, or searches keep hitting
        the orphaned pre-insert snapshot and never see the newcomer."""
        from repro.core.query import Query, QueryPoint

        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            trajectory = self._outside_trajectory(db, sharded)
            query = Query(
                [
                    QueryPoint(
                        trajectory[0].x,
                        trajectory[0].y,
                        frozenset(list(trajectory[0].activities)[:1]),
                    )
                ]
            )
            service.search(query, k=1)  # engines warm on the old indexes
            owner = sharded.router.shard_of(trajectory.trajectory_id)
            old_engine = service.placement.banks[0][owner]

            sharded.insert_trajectory(trajectory)  # overflow rebuild

            response = service.search(query, k=1)
            assert response.results[0].trajectory_id == trajectory.trajectory_id
            assert response.results[0].distance == 0.0
            assert service.placement.banks[0][owner] is not old_engine
            assert service.placement.banks[0][owner].index is sharded.shards[owner]

    def test_cache_hit_rates_stay_valid_after_engine_refresh(self, db):
        """Regression: the discarded engine's APL counters (and the
        orphaned index's HICL counters) must leave the stats baselines
        when an overflow insert rebinds a shard's engine — otherwise the
        delta hit rates go negative or clamp to a bogus 0.0."""
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG)
        queries = [_query_for(db, seed=s) for s in (1, 2, 3)]
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            # Warm the caches so they hold counters at baseline time...
            for _ in range(4):
                service.search_many(queries, k=3)
            service.reset_stats()
            # ...and keep serving warm traffic after the reset.
            service.search_many(queries, k=3)
            trajectory = self._outside_trajectory(db, sharded)
            sharded.insert_trajectory(trajectory)  # rebinds owner's engine
            service.search_many(queries, k=3)
            stats = service.stats()
            assert 0.0 < stats.apl_cache_hit_rate <= 1.0
            assert 0.0 < stats.hicl_cache_hit_rate <= 1.0
