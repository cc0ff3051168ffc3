"""ShardedGATIndex construction, insert routing, and aggregate accounting."""

import pytest
from fetch_oracle import fetch

from repro.index.gat.index import GATConfig
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.shard import ShardedGATIndex, ShardRouter

CONFIG = GATConfig(depth=4, memory_levels=3)


def _fresh_trajectory(db, tid=None):
    """A new trajectory inside the index box, reusing known activities."""
    anchor = db.trajectories[0]
    points = [
        TrajectoryPoint(p.x, p.y, frozenset(p.activities))
        for p in anchor
        if p.activities
    ]
    if tid is None:
        tid = max(tr.trajectory_id for tr in db) + 1
    return ActivityTrajectory(tid, points)


class TestBuild:
    @pytest.mark.parametrize("strategy", ["hash", "spatial"])
    def test_shards_cover_database_disjointly(self, tiny_db, strategy):
        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=4, config=CONFIG, strategy=strategy
        )
        seen = []
        for shard in sharded.shards:
            seen.extend(tr.trajectory_id for tr in shard.db)
        assert sorted(seen) == sorted(tr.trajectory_id for tr in tiny_db)

    def test_local_boxes_cover_each_shards_own_points(self, tiny_db):
        """Default build: each shard's grid spans its own trajectories'
        (padded) bounding box, which the global box always contains."""
        sharded = ShardedGATIndex.build(tiny_db, n_shards=4, config=CONFIG)
        global_box = tiny_db.bounding_box
        for shard in sharded.shards:
            box = shard.grid.box
            assert box == shard.db.bounding_box
            for tr in shard.db:
                for p in tr:
                    assert box.min_x <= p.x <= box.max_x
                    assert box.min_y <= p.y <= box.max_y
            assert global_box.min_x <= box.min_x and box.max_x <= global_box.max_x
            assert global_box.min_y <= box.min_y and box.max_y <= global_box.max_y
        assert sharded.shard_boxes == tuple(s.grid.box for s in sharded.shards)

    def test_global_box_mode_spans_every_shard(self, tiny_db):
        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=4, config=CONFIG, shard_box="global"
        )
        boxes = {shard.grid.box for shard in sharded.shards}
        assert boxes == {tiny_db.bounding_box}

    def test_unknown_shard_box_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="shard_box"):
            ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG, shard_box="tight")

    def test_empty_shard_is_rejected(self, tiny_db):
        with pytest.raises(ValueError, match="empty"):
            ShardedGATIndex.build(
                tiny_db, n_shards=len(tiny_db) + 5, config=CONFIG, strategy="hash"
            )

    def test_shard_count_mismatch_rejected(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
        router3 = ShardRouter.for_database(tiny_db, 3)
        with pytest.raises(ValueError):
            ShardedGATIndex(tiny_db, router3, sharded.shards)

    def test_disk_factory_used_per_shard(self, tiny_db):
        from repro.storage.disk import SimulatedDisk

        disks = []

        def factory():
            disk = SimulatedDisk(read_latency_s=0.0)
            disks.append(disk)
            return disk

        sharded = ShardedGATIndex.build(
            tiny_db, n_shards=3, config=CONFIG, disk_factory=factory
        )
        assert [shard.disk for shard in sharded.shards] == disks
        assert len(set(map(id, disks))) == 3  # one private disk per shard


class TestInsertRouting:
    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_insert_leaves_the_fleet_unchanged(self, tiny_db, x):
        import copy

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=2, config=CONFIG, strategy="spatial")
        version, boxes = sharded.version, sharded.shard_boxes
        fresh = _fresh_trajectory(db)
        tid = fresh.trajectory_id
        bad = ActivityTrajectory(tid, [*fresh.points, TrajectoryPoint(x, 0.0, frozenset({0}))])
        with pytest.raises(ValueError, match=f"trajectory {tid}: non-finite"):
            sharded.insert_trajectory(bad)
        assert (sharded.version, sharded.shard_boxes) == (version, boxes)
        assert all(tid not in d for d in [db, *(shard.db for shard in sharded.shards)])

    @pytest.mark.parametrize("strategy", ["hash", "spatial"])
    def test_insert_lands_on_exactly_the_routed_shard(self, tiny_db, strategy):
        import copy

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=4, config=CONFIG, strategy=strategy)
        trajectory = _fresh_trajectory(db)
        tid = trajectory.trajectory_id
        owner = sharded.router.shard_of(tid)
        before = sharded.version

        sharded.insert_trajectory(trajectory)

        assert tid in sharded.shards[owner].db
        assert fetch(sharded.shards[owner].apl, tid) == trajectory.posting_lists
        for sid, shard in enumerate(sharded.shards):
            if sid != owner:
                assert tid not in shard.db
        assert tid in db  # global registry updated too
        # Composite version: exactly the owner's component moved.
        after = sharded.version
        assert after != before
        assert [a - b for a, b in zip(after, before)] == [
            1 if sid == owner else 0 for sid in range(4)
        ]

    def test_duplicate_id_rejected_across_shards(self, tiny_db):
        import copy

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=4, config=CONFIG)
        # An id that certainly lives on *some* shard already.
        existing = db.trajectories[7].trajectory_id
        versions = sharded.version
        with pytest.raises(ValueError, match="already present"):
            sharded.insert_trajectory(_fresh_trajectory(db, tid=existing))
        assert sharded.version == versions  # nothing mutated

    def test_inserted_trajectory_found_by_search(self, tiny_db):
        """A perfect-match insert must surface as the top result — the end
        to end proof that routing hit a live, queryable shard."""
        import copy

        from repro.core.engine import GATSearchEngine
        from repro.core.query import Query, QueryPoint

        db = copy.deepcopy(tiny_db)
        sharded = ShardedGATIndex.build(db, n_shards=3, config=CONFIG)
        sharded.close()  # a no-op (owns no external resource): the fleet stays live
        trajectory = _fresh_trajectory(db)
        sharded.insert_trajectory(trajectory)
        query = Query(
            [
                QueryPoint(p.x, p.y, frozenset(list(p.activities)[:1]))
                for p in list(trajectory)[:2]
            ]
        )
        owner = sharded.router.shard_of(trajectory.trajectory_id)
        engine = GATSearchEngine(sharded.shards[owner])
        # k=2: the anchor the new trajectory copies also scores 0.0 and
        # wins the id tie-break when it shares the shard.
        top = engine.atsq(query, k=2)
        assert (trajectory.trajectory_id, 0.0) in [
            (r.trajectory_id, r.distance) for r in top
        ]


class TestAggregates:
    def test_memory_cost_sums_over_shards(self, tiny_db):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=3, config=CONFIG)
        assert sharded.memory_cost_bytes() == sum(
            s.memory_cost_bytes() for s in sharded.shards
        )
