"""Shard-local retrieval grids, spatial routing, and the process-backend
shared threshold.

Parity is the bar throughout: the grid box, the per-shard depth
adaptation, the routing strategy, the fan-out task order, and the shared
k-th threshold all move retrieval *work*, never results — every
configuration must return the single-index ranking byte-for-byte.
"""

import copy
import math

import pytest
from fetch_oracle import fetch

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import GATSearchEngine
from repro.core.query import Query, QueryPoint
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.service import QueryRequest
from repro.shard import ShardedGATIndex, ShardedQueryService, ShardRouter

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 6


@pytest.fixture(scope="module")
def queries(tiny_db):
    gen = QueryWorkloadGenerator(
        tiny_db,
        WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=97),
    )
    return gen.queries(5)


@pytest.fixture(scope="module")
def expected(tiny_db, queries):
    engine = GATSearchEngine(GATIndex.build(tiny_db, CONFIG))
    out = []
    for i, query in enumerate(queries):
        ranked = engine.execute(query, K, order_sensitive=(i % 2 == 1)).ranked
        out.append([(r.trajectory_id, r.distance) for r in ranked])
    return out


def _served(service, queries):
    return [
        [
            (r.trajectory_id, r.distance)
            for r in service.search(
                q, k=K, order_sensitive=(i % 2 == 1)
            ).results
        ]
        for i, q in enumerate(queries)
    ]


# ----------------------------------------------------------------------
# Spatial routing
# ----------------------------------------------------------------------
class TestSpatialRouter:
    def test_balanced_total_partition(self, tiny_db):
        router = ShardRouter.for_database(tiny_db, 4, "spatial")
        parts = router.partition(tr.trajectory_id for tr in tiny_db)
        sizes = sorted(len(p) for p in parts)
        assert sum(sizes) == len(tiny_db)
        assert sizes[-1] - sizes[0] <= 1  # equal-cardinality chunks

    def test_deterministic_directory(self, tiny_db):
        a = ShardRouter.for_database(tiny_db, 3, "spatial")
        b = ShardRouter.for_database(tiny_db, 3, "spatial")
        ids = [tr.trajectory_id for tr in tiny_db]
        assert [a.shard_of(t) for t in ids] == [b.shard_of(t) for t in ids]

    def test_unknown_id_falls_back_to_hash(self, tiny_db):
        router = ShardRouter.for_database(tiny_db, 3, "spatial")
        fresh = max(tr.trajectory_id for tr in tiny_db) + 17
        assert router.shard_of(fresh) == fresh % 3

    def test_assignments_validated(self):
        with pytest.raises(ValueError, match="unknown shards"):
            ShardRouter(2, {1: 5})
        with pytest.raises(ValueError, match="unknown shards"):
            ShardRouter(2, {1: -1})

    def test_spatial_shards_are_more_compact_than_hash(self, tiny_db):
        """The point of spatial routing: smaller per-shard footprints.
        Compared via the summed per-shard box areas (hash shards each span
        ~the whole universe)."""

        def total_area(strategy):
            sharded = ShardedGATIndex.build(
                tiny_db, n_shards=4, config=CONFIG, strategy=strategy
            )
            return sum(box.width * box.height for box in sharded.shard_boxes)

        assert total_area("spatial") < total_area("hash")


# ----------------------------------------------------------------------
# Local grid boxes
# ----------------------------------------------------------------------
class TestLocalGrids:
    @pytest.mark.parametrize("strategy", ["hash", "spatial"])
    @pytest.mark.parametrize("shard_box", ["local", "global"])
    def test_parity_with_single_index(
        self, tiny_db, queries, expected, strategy, shard_box
    ):
        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=3, config=CONFIG, strategy=strategy,
            shard_box=shard_box,
        )
        with ShardedQueryService(
            sharded, executor="serial", result_cache_size=0
        ) as service:
            assert _served(service, queries) == expected

    def test_depth_adapts_to_compact_shards(self, tiny_db):
        """A shard whose footprint is a fraction of the universe drops
        grid levels so its leaf cells keep the global physical size."""
        box = tiny_db.bounding_box
        shrunk = type(box)(
            box.min_x, box.min_y,
            box.min_x + box.width / 4, box.min_y + box.height / 4,
        )
        adapted = ShardedGATIndex._local_config(CONFIG, box, shrunk)
        assert adapted.depth == CONFIG.depth - 2  # 1/16 the area -> 2 levels
        assert adapted.memory_levels <= adapted.depth
        # A full-universe shard keeps the configured depth.
        assert ShardedGATIndex._local_config(CONFIG, box, box) == CONFIG

    def test_process_spec_carries_per_shard_boxes_and_configs(self, tiny_db):
        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=3, config=CONFIG, strategy="spatial"
        )
        service = ShardedQueryService(sharded, executor="serial")
        try:
            spec = service._make_spec()
            assert spec.bounding_boxes == sharded.shard_boxes
            assert spec.gat_configs == tuple(s.config for s in sharded.shards)
        finally:
            service.close()


# ----------------------------------------------------------------------
# Insert-overflow rebuild
# ----------------------------------------------------------------------
class TestOverflowInsert:
    def _outside_trajectory(self, db, sid, sharded):
        """A trajectory owned by shard *sid* lying outside its local box
        (just past the global corner, reusing known activities)."""
        box = sharded.shards[sid].grid.box
        anchor = next(p for tr in db for p in tr if p.activities)
        tid = max(tr.trajectory_id for tr in db) + 1
        while sharded.router.shard_of(tid) != sid:
            tid += 1
        point = TrajectoryPoint(
            box.max_x + 1.0, box.max_y + 1.0, frozenset(anchor.activities)
        )
        return ActivityTrajectory(tid, [point])

    def test_insert_outside_box_rebuilds_and_serves(self, tiny_db):
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        sid = 1
        trajectory = self._outside_trajectory(db, sid, sharded)
        old_box = sharded.shards[sid].grid.box
        before = sharded.version

        sharded.insert_trajectory(trajectory)

        after = sharded.version
        assert after != before
        assert after[sid] == before[sid] + 1  # version strictly advanced
        new_box = sharded.shards[sid].grid.box
        assert new_box.max_x >= trajectory[0].x
        assert new_box.max_y >= trajectory[0].y
        assert new_box.min_x <= old_box.min_x  # expansion, never shrink
        assert trajectory.trajectory_id in sharded.shards[sid].db
        assert fetch(sharded.shards[sid].apl, trajectory.trajectory_id) == trajectory.posting_lists

        # A query at the newcomer's location finds it — the rebuilt shard
        # is live and exact.
        query = Query(
            [
                QueryPoint(
                    trajectory[0].x,
                    trajectory[0].y,
                    frozenset(list(trajectory[0].activities)[:1]),
                )
            ]
        )
        engine = GATSearchEngine(sharded.shards[sid])
        top = engine.atsq(query, k=1)
        assert top[0].trajectory_id == trajectory.trajectory_id
        assert top[0].distance == 0.0

    def test_result_cache_invalidated_by_overflow_insert(self, tiny_db, queries):
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        with ShardedQueryService(sharded, executor="serial") as service:
            first = service.search(queries[0], k=K)
            trajectory = self._outside_trajectory(db, 0, sharded)
            sharded.insert_trajectory(trajectory)
            again = service.search(queries[0], k=K)
            stats = service.stats()
            # Second identical request missed the cache: the composite
            # version moved with the rebuilt shard.
            assert stats.result_cache_lookups == 2
            assert stats.result_cache_hits == 0
            assert [r.trajectory_id for r in again.results] == [
                r.trajectory_id for r in first.results
            ]

    def test_in_box_insert_does_not_rebuild(self, tiny_db):
        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        anchor = db.trajectories[0]
        tid = max(tr.trajectory_id for tr in db) + 1
        sid = sharded.router.shard_of(tid)
        # Anchor points may lie outside the owning shard's local box; pick
        # a point from the owning shard's own data instead.
        p = next(p for tr in sharded.shards[sid].db for p in tr if p.activities)
        trajectory = ActivityTrajectory(
            tid, [TrajectoryPoint(p.x, p.y, frozenset(p.activities))]
        )
        index_before = sharded.shards[sid]
        sharded.insert_trajectory(trajectory)
        assert sharded.shards[sid] is index_before  # same index object


# ----------------------------------------------------------------------
# Process-backend shared threshold
# ----------------------------------------------------------------------
class TestProcessThreshold:
    def test_rankings_match_serial(self, tiny_db, queries, expected):
        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=3, config=CONFIG, strategy="spatial"
        )
        with ShardedQueryService(
            sharded, executor="process", result_cache_size=0
        ) as service:
            assert _served(service, queries) == expected

    def test_slot_lease_cycle(self, tiny_db):
        from repro.shard.executor import ProcessShardExecutor

        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        service = ShardedQueryService(sharded, executor="process")
        try:
            executor = service._executor
            assert isinstance(executor, ProcessShardExecutor)
            slots = [executor.acquire_slot() for _ in range(executor.N_SLOTS)]
            assert None not in slots
            assert len(set(slots)) == executor.N_SLOTS
            assert executor.acquire_slot() is None  # exhausted -> no pruning
            for slot in slots:
                executor.release_slot(slot)
            reacquired = executor.acquire_slot()
            assert reacquired is not None
            # Leasing resets the shared value to +inf.
            assert math.isinf(executor._slots[reacquired].value)
            executor.release_slot(reacquired)
            executor.release_slot(None)  # no-op
        finally:
            service.close()

    def test_slot_threshold_publishes_fleet_minimum(self):
        import multiprocessing

        from repro.core.results import SearchResult
        from repro.shard.executor import _SlotThreshold

        value = multiprocessing.Value("d", math.inf)
        a = _SlotThreshold(value, k=2)
        b = _SlotThreshold(value, k=2)
        assert a.threshold() == math.inf
        a.offer(SearchResult(1, 5.0))
        assert a.threshold() == math.inf  # fewer than k locally
        a.offer(SearchResult(2, 3.0))
        assert a.threshold() == 5.0  # local k-th published
        b.offer(SearchResult(3, 2.0))
        b.offer(SearchResult(4, 1.0))
        assert b.threshold() == 2.0  # tighter shard wins the minimum
        a.offer(SearchResult(5, 9.0))  # worse result cannot loosen it
        assert a.threshold() == 2.0
