"""Unit tests for the Hierarchical Inverted Cell List (HICL)."""

import numpy as np
import pytest
from frozenset_hicl_oracle import cells_with_activity
from python_walk_oracle import QueryBitmaps

from repro.core.context import SearchStats
from repro.geometry.grid import HierarchicalGrid
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore
import repro.index.gat.hicl as hicl_module
from repro.index.gat.hicl import HICL, memory_level_budget, row_bytes
from repro.model.database import TrajectoryDatabase
from repro.storage.disk import SimulatedDisk


def build_hicl(db, grid, **kwargs):
    """``HICL.build`` over *db*'s leaf postings, as ``GATIndex.build`` feeds it."""
    image = APLStore(db, SimulatedDisk()).image
    codes, activities, _starts, _rows = image.leaf_lists(grid.leaf_level)
    return HICL.build(codes, activities, grid, **kwargs)


@pytest.fixture
def db():
    # Two trajectories in a unit-ish square with known activity placement.
    return TrajectoryDatabase.from_raw(
        [
            [(1.0, 1.0, ["a"]), (9.0, 9.0, ["b"])],
            [(1.2, 1.1, ["a", "b"]), (5.0, 5.0, [])],
        ]
    )


@pytest.fixture
def grid(db):
    return HierarchicalGrid(db.bounding_box, depth=4)


class TestBuild:
    def test_all_in_memory(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        cells = cells_with_activity(hicl, a, 4)
        assert cells  # a exists somewhere at leaf level
        # Both 'a' points are near (1,1): one or two leaf cells.
        assert 1 <= len(cells) <= 2

    def test_leaf_membership_matches_point_location(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        assert leaf in cells_with_activity(hicl, a, 4)

    def test_parent_aggregation(self, db, grid):
        """A cell contains alpha at level L-1 iff one of its children does."""
        hicl = build_hicl(db, grid, memory_levels=4)
        for name in ("a", "b"):
            act = db.vocabulary.id_of(name)
            for level in range(1, 4):
                parents = cells_with_activity(hicl, act, level)
                children = cells_with_activity(hicl, act, level + 1)
                assert parents == {code >> 2 for code in children}

    def test_empty_activity_points_ignored(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        mid_leaf = grid.leaf_level.locate((5.0, 5.0))
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        assert mid_leaf not in cells_with_activity(hicl, a, 4)
        assert mid_leaf not in cells_with_activity(hicl, b, 4)

    def test_unknown_activity_empty(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        assert cells_with_activity(hicl, 999, 4) == frozenset()

    def test_level_bounds_checked(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        with pytest.raises(ValueError):
            cells_with_activity(hicl, 0, 0)
        with pytest.raises(ValueError):
            cells_with_activity(hicl, 0, 5)


class TestDiskResidence:
    def test_requires_disk_for_low_levels(self, db, grid):
        with pytest.raises(ValueError):
            HICL(grid, memory_levels=2, disk=None)

    def test_disk_levels_round_trip(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        full = build_hicl(db, grid, memory_levels=4)
        for name in ("a", "b"):
            act = db.vocabulary.id_of(name)
            for level in (3, 4):
                assert cells_with_activity(hicl, act, level) == cells_with_activity(full, act, level)

    def test_disk_reads_counted_once_per_query_with_cache(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        disk.reset_stats()
        a = db.vocabulary.id_of("a")
        cells_with_activity(hicl, a, 4)
        cells_with_activity(hicl, a, 4)
        cells_with_activity(hicl, a, 4)
        assert disk.stats.reads == 1  # cached after the first read
        hicl.clear_cache()
        cells_with_activity(hicl, a, 4)
        assert disk.stats.reads == 2

    def test_memory_levels_do_not_touch_disk(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        disk.reset_stats()
        cells_with_activity(hicl, db.vocabulary.id_of("a"), 1)
        cells_with_activity(hicl, db.vocabulary.id_of("a"), 2)
        assert disk.stats.reads == 0

    def test_cache_is_lru_bounded(self, db, grid, monkeypatch):
        assert hicl_module.CACHE_CAPACITY == 4096
        monkeypatch.setattr(hicl_module, "CACHE_CAPACITY", 1)
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        disk.reset_stats()
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        cells_with_activity(hicl, a, 4)  # load a
        cells_with_activity(hicl, b, 4)  # evicts a (capacity 1)
        cells_with_activity(hicl, a, 4)  # re-read from disk
        assert disk.stats.reads == 3

    def test_cache_stats_exposed(self, db, grid):
        """A lookup of a disk-resident list counts on the asking query's
        stats; memory-resident levels make no cache lookup."""
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        a = db.vocabulary.id_of("a")
        stats = SearchStats()
        hicl.bitmap(a, 4, stats)
        hicl.bitmap(a, 4, stats)
        hicl.bitmap(a, 2, stats)
        assert stats.hicl_cache_hits == 1
        assert stats.hicl_cache_lookups - stats.hicl_cache_hits == 1


class TestByteRows:
    """In-memory levels are dense read-only ``uint8`` arrays, a row per
    activity that occurs; an insert publishes new ones."""

    def test_levels_are_dense_byte_rows(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=3, disk=SimulatedDisk())
        levels = hicl.levels
        present = sorted(db.vocabulary.id_of(name) for name in ("a", "b"))
        assert levels.activities.tolist() == present
        assert levels.rows[0] is None and levels.rows[4] is None  # level 4 is on disk
        for level in (1, 2, 3):
            rows = levels.rows[level]
            assert rows.dtype == np.uint8 and rows.shape == (2, row_bytes(level))
            assert not rows.flags.writeable
            for slot, activity in enumerate(present):
                assert hicl.bitmap(activity, level) == rows[slot].tobytes()
        assert hicl.bitmap(999, 2) == bytes(row_bytes(2))
        assert len(hicl.bitmap(present[0], 4)) == row_bytes(4) == 32

    def test_add_point_publishes_new_rows(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        old = hicl.levels
        before = [None if rows is None else rows.copy() for rows in old.rows]
        leaf = grid.leaf_level.locate((5.0, 5.0))
        hicl.add_point(leaf, [db.vocabulary.id_of("a"), 7])
        assert hicl.levels is not old and hicl.levels.handle != old.handle
        for was, rows in zip(before, old.rows):  # the old arrays are untouched
            assert (was is None and rows is None) or np.array_equal(was, rows)
        assert 7 in hicl.levels.activities.tolist()
        for level in range(1, 5):
            assert leaf >> 2 * (4 - level) in cells_with_activity(hicl, 7, level)


class TestWarmCacheAcrossQueries:
    """Regression for the cross-query cache thrash: the engine used to
    call ``clear_cache()`` at the start of every query, so back-to-back
    queries re-read every disk-resident cell list."""

    def _engine_and_query(self, small_db):
        from repro.core.engine import GATSearchEngine
        from repro.core.query import Query, QueryPoint
        from repro.index.gat.index import GATConfig, GATIndex

        # memory_levels < depth so leaf lookups hit the simulated disk.
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=3))
        engine = GATSearchEngine(index)
        tr = next(t for t in small_db if sum(1 for p in t if p.activities) >= 2)
        pts = [p for p in tr if p.activities][:2]
        query = Query(
            [QueryPoint(p.x, p.y, frozenset(list(p.activities)[:2])) for p in pts]
        )
        return engine, query

    def test_back_to_back_queries_reuse_warm_cells(self, small_db):
        engine, query = self._engine_and_query(small_db)
        first = engine.execute(query, k=3).stats
        second = engine.execute(query, k=3).stats
        # Identical answers and pruning work either way...
        assert second.tas_pruned == first.tas_pruned
        assert second.apl_pruned == first.apl_pruned
        # ...but the repeat query is served from the warm caches: every
        # one of its HICL lookups hits.
        assert second.disk_reads < first.disk_reads
        assert second.hicl_cache_lookups == first.hicl_cache_lookups > 0
        assert second.hicl_cache_hits == second.hicl_cache_lookups

    def test_cold_cache_restores_seed_io(self, small_db):
        """clear_cache() + a cache-less engine reproduces the seed's
        one-read-per-(activity,level)-per-query accounting."""
        from repro.core.engine import GATSearchEngine

        engine, query = self._engine_and_query(small_db)
        cold = GATSearchEngine(engine.index, apl_cache_size=0)
        engine.index.hicl.clear_cache()
        first = cold.execute(query, k=3).stats
        engine.index.hicl.clear_cache()
        second = cold.execute(query, k=3).stats
        assert second.disk_reads == first.disk_reads


class TestQueries:
    """The per-query bitmap view (``python_walk_oracle.QueryBitmaps``) —
    what the Python walk and the oracle bound read — over ``HICL.bitmap``'s
    byte rows.  The ``frozenset`` walkers it replaced live in
    ``tests/property/frozenset_hicl_oracle.py``; the differential test
    there compares the two over whole retrievals."""

    @staticmethod
    def _view(hicl, *activity_sets):
        return QueryBitmaps(
            hicl, Query([QueryPoint(1.0, 1.0, frozenset(acts)) for acts in activity_sets])
        )

    def test_cells_with_any_unions(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        view = self._view(hicl, {a, b})
        union = cells_with_activity(hicl, a, 4) | cells_with_activity(hicl, b, 4)
        as_int = [int.from_bytes(hicl.bitmap(act, 4), "little") for act in (a, b)]
        assert as_int[0] | as_int[1] == sum(1 << code for code in union)
        # Every leaf cell shows up in its parent's nibble, and nothing else does.
        children = {
            (parent << 2) + j
            for parent in range(4**3)
            for j in range(4)
            if view.child_nibble(0, 4, parent) >> j & 1
        }
        assert children == union

    def test_cell_activity_overlap(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        leaf = grid.leaf_level.locate((1.2, 1.1))  # has a and b via Tr2
        view = self._view(hicl, {a, b, 999})
        mask = view.overlap_mask(0, 4, leaf)
        overlap = {act for j, act in enumerate(view.activities[0]) if mask >> j & 1}
        assert overlap == {a, b}

    def test_children_with_any_filters(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=4)
        a = db.vocabulary.id_of("a")
        view = self._view(hicl, {a})
        # Walk from the level-1 cell containing (1,1) down: every level must
        # offer at least one child containing 'a'.
        cell = grid.locate((1.0, 1.0), 1)
        code, level = cell.code, cell.level
        assert view.child_nibble(0, 1, 0) >> code & 1  # a root child itself
        while level < 4:
            nibble = view.child_nibble(0, level + 1, code)
            assert nibble
            kids = [(code << 2) + j for j in range(4) if nibble >> j & 1]
            assert set(kids) <= cells_with_activity(hicl, a, level + 1)
            code, level = kids[0], level + 1

    def test_cell_has_any(self, db, grid):
        disk = SimulatedDisk()
        hicl = build_hicl(db, grid, memory_levels=2, disk=disk)
        a = db.vocabulary.id_of("a")
        leaf = grid.leaf_level.locate((1.0, 1.0))
        disk.reset_stats()
        view = self._view(hicl, {a}, {999})
        assert view.child_nibble(0, 4, leaf >> 2) >> (leaf & 3) & 1
        assert view.overlap_mask(0, 4, leaf) == 1
        assert view.child_nibble(1, 4, leaf >> 2) == 0
        assert view.overlap_mask(1, 4, leaf) == 0
        # One lookup per (level, activity) of each query point, however
        # many cells are probed: a's list, and a counted miss for 999.
        assert disk.stats.reads == 2


class TestMemoryCost:
    """Figure 8's model — 8 bytes per (activity, cell) entry + 16 per list
    of the memory-resident levels — read off popcounts.  The numbers are
    what the ``frozenset`` HICL returned for this fixture."""

    def test_all_levels_in_memory(self, db, grid):
        assert build_hicl(db, grid, memory_levels=4).memory_cost_bytes() == 224

    def test_disk_levels_not_charged(self, db, grid):
        hicl = build_hicl(db, grid, memory_levels=2, disk=SimulatedDisk())
        assert hicl.memory_cost_bytes() == 112
        hicl.add_point(grid.leaf_level.locate((5.0, 5.0)), [0, 7])
        assert hicl.memory_cost_bytes() == 176


def test_memory_level_budget_formula():
    # h = log4(3B/(4C) + 1): with B = 4^1*C*...  check monotonicity + exact point.
    assert memory_level_budget(4 * 100, 100) == 1  # exactly level 1 fits
    assert memory_level_budget((4 + 16) * 100, 100) == 2
    assert memory_level_budget(10, 1_000_000) == 0
    with pytest.raises(ValueError):
        memory_level_budget(0, 10)
