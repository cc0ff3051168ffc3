"""Unit tests for the Inverted Trajectory List and Activity Posting List."""

import pytest
from fetch_oracle import fetch

from repro.core.kernels import QueryKernel
from repro.core.query import Query, QueryPoint
from repro.geometry.grid import HierarchicalGrid
from repro.index.gat.apl import APLStore
from repro.index.gat.itl import ITL
from repro.model.database import TrajectoryDatabase
from repro.model.distance import EuclideanDistance
from repro.storage.disk import SimulatedDisk


def _prepared(activities):
    """A one-point query asking *activities*, prepared for the C round."""
    return QueryKernel(Query([QueryPoint(0.0, 0.0, frozenset(activities))]), EuclideanDistance())


@pytest.fixture
def db():
    return TrajectoryDatabase.from_raw(
        [
            [(1.0, 1.0, ["a"]), (9.0, 9.0, ["b"]), (1.1, 1.05, ["a", "c"])],
            [(1.05, 1.02, ["a"]), (5.0, 5.0, [])],
        ]
    )


@pytest.fixture
def grid(db):
    return HierarchicalGrid(db.bounding_box, depth=3)


@pytest.fixture
def itl(db, grid):
    image = APLStore(db, SimulatedDisk()).image
    return ITL.build(*image.leaf_lists(grid.leaf_level))


class TestITL:
    """Lists hold APL rows; in this database row ``i`` is trajectory ``i``."""

    def test_trajectories_with_activity_in_cell(self, db, grid, itl):
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        # both trajectories have 'a' near (1,1) — the first one twice
        assert itl.rows_with(leaf, a) == (0, 1)

    def test_lists_sorted(self, db, grid, itl):
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        rows = itl.rows_with(leaf, a)
        assert list(rows) == sorted(set(rows))

    def test_activity_absent_from_cell(self, db, grid, itl):
        b = db.vocabulary.id_of("b")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert itl.rows_with(leaf, b) == ()

    def test_trajectories_with_any(self, db, grid, itl):
        a, c = db.vocabulary.id_of("a"), db.vocabulary.id_of("c")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert set(itl.rows_with(leaf, a)) | set(itl.rows_with(leaf, c)) == {0, 1}
        assert itl.rows_with(leaf, 999) == ()

    def test_activities_in_cell(self, db, grid, itl):
        leaf = grid.leaf_level.locate((9.0, 9.0))
        present = {a for a in range(len(db.vocabulary)) if itl.rows_with(leaf, a)}
        assert present == {db.vocabulary.id_of("b")}

    def test_empty_cell(self, db, grid, itl):
        empty_leaf = grid.leaf_level.locate((5.0, 9.0))
        assert all(itl.rows_with(empty_leaf, a) == () for a in range(len(db.vocabulary)))

    def test_memory_cost_positive(self, itl):
        # a in the (1, 1) leaf, c beside it, b at (9, 9): 8 per entry, 16 per list
        assert len(itl) == 3
        assert itl.memory_cost_bytes() == 8 * 4 + 16 * 3

    def test_add_posting_appends_the_newest_row_once(self, db, grid, itl):
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        itl.add_row([(leaf, a), (leaf, a)], 2)  # two points of row 2 in the same cell
        assert itl.rows_with(leaf, a) == (0, 1, 2)

    def test_add_row_publishes_new_arrays(self, db, grid, itl):
        """A new (cell, activity) opens a list; the arrays a query started
        with are replaced, never changed."""
        b = db.vocabulary.id_of("b")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        before = itl.arrays
        itl.add_row([(leaf, b)], 2)
        assert itl.rows_with(leaf, b) == (2,)
        assert len(itl) == 4 and itl.arrays.n_rows == 3
        assert len(before.keys) == 3 and before.n_rows == 2 and itl.arrays is not before
        assert itl.memory_cost_bytes() == 8 * 5 + 16 * 4


class TestAPL:
    def test_build_and_fetch(self, db):
        disk = SimulatedDisk()
        apl = APLStore(db, disk)
        assert len(apl) == 2
        posting = fetch(apl, 0)
        a = db.vocabulary.id_of("a")
        assert posting[a] == (0, 2)

    def test_fetch_matches_trajectory_posting_lists(self, db):
        apl = APLStore(db, SimulatedDisk())
        for tr in db:
            assert fetch(apl, tr.trajectory_id) == tr.posting_lists

    def test_fetch_counts_disk_reads(self, db):
        disk = SimulatedDisk()
        apl = APLStore(db, disk)
        disk.reset_stats()
        fetch(apl, 0)
        fetch(apl, 1)
        assert disk.stats.reads == 2

    def test_fetch_unknown_raises(self, db):
        apl = APLStore(db, SimulatedDisk())
        with pytest.raises(KeyError):
            fetch(apl, 42)

    def test_covers_query(self, db):
        """The exact validation of Section V-C: a posting list must exist
        for every query activity — no lookup may land on the sentinel."""
        apl = APLStore(db, SimulatedDisk())
        ids = db.vocabulary

        def covers(activities):
            candidates = apl.round([0], _prepared(activities))
            return bool((candidates.lookup() != candidates.image.handle.n_keys).all())

        assert covers([ids.id_of("a"), ids.id_of("b")])
        assert not covers([ids.id_of("a"), 999])

    def test_candidate_positions_sorted_union(self, db):
        """``CP`` for one query point: the union of the position slices its
        activities look up (Algorithm 3, line 1)."""
        apl = APLStore(db, SimulatedDisk())
        ids = db.vocabulary

        def positions(activities):
            candidates = apl.round([0], _prepared(activities))
            image = candidates.image
            slices = [
                image.positions[image.offsets[key] : image.offsets[key + 1]].tolist()
                for key in candidates.lookup()[0]
            ]
            return tuple(sorted(set().union(*slices)))

        assert positions([ids.id_of("a"), ids.id_of("c")]) == (0, 2)
        assert positions([ids.id_of("a"), ids.id_of("b")]) == (0, 1, 2)
        assert positions([999]) == ()
