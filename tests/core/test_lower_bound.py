"""Unit tests for the Frontier structure and Algorithm 2's lower bound."""

import math

import pytest

from repro.core.context import SearchStats
from repro.core.lower_bound import Frontier, lower_bound_distance
from repro.core.pipeline import CandidateRetriever
from repro.core.query import Query, QueryPoint
from repro.index.gat.hicl import QueryBitmaps
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase

INF = math.inf


class TestFrontier:
    """The frontier is a per-round snapshot of one query point's heap
    entries; ``nearest`` / ``mth_distance`` keep their semantics."""

    def test_sorted_insertion(self):
        f = Frontier([(3.0, 2, 10), (1.0, 2, 11), (2.0, 3, 12)])
        assert [e[0] for e in f.nearest(3)] == [1.0, 2.0, 3.0]
        # Ties on mdist order by (level, code), whatever the heap order was.
        tied = Frontier([(1.0, 3, 7), (1.0, 2, 9), (1.0, 2, 4)])
        assert tied.nearest(2) == [(1.0, 2, 4), (1.0, 2, 9)]

    def _retriever(self):
        db = TrajectoryDatabase.from_raw(
            [[(1.0, 1.0, ["a"]), (9.0, 9.0, ["a"])], [(1.0, 9.0, ["a"])]]
        )
        index = GATIndex.build(db, GATConfig(depth=3, memory_levels=3))
        a = db.vocabulary.id_of("a")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a}))])
        return CandidateRetriever(index, query, SearchStats())

    def test_remove_present(self):
        """A popped cell leaves the frontier; its children enter it."""
        retriever = self._retriever()
        (before,) = retriever.frontiers()
        nearest = before.nearest(1)[0]
        assert nearest[0] == 0.0 and nearest[1] == 1
        retriever.retrieve(batch=1)  # walks the nearest chain down to a leaf
        (after,) = retriever.frontiers()
        assert nearest not in after.nearest(len(after))
        assert len(after) == len(retriever.queue())
        assert after.nearest(1)[0][0] > 0.0

    def test_remove_absent_is_noop(self):
        """Reading the frontier does not disturb the heap."""
        retriever = self._retriever()
        queue_before = retriever.queue()
        first = retriever.frontiers()[0].nearest(10)
        assert retriever.queue() == queue_before
        assert retriever.frontiers()[0].nearest(10) == first

    def test_mth_distance(self):
        f = Frontier((float(i), 1, i) for i in range(5))
        assert f.mth_distance(3) == 2.0
        assert f.mth_distance(5) == 4.0
        assert f.mth_distance(6) == INF

    def test_bool(self):
        assert not Frontier()
        assert Frontier([(1.0, 1, 0)])


class TestLowerBound:
    @pytest.fixture
    def setup(self):
        db = TrajectoryDatabase.from_raw(
            [[(1.0, 1.0, ["a"]), (9.0, 9.0, ["b"])]]
        )
        index = GATIndex.build(db, GATConfig(depth=3, memory_levels=3))
        return db, index.grid, index.hicl

    def test_empty_frontier_is_infinite(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a}))])
        assert lower_bound_distance([Frontier()], QueryBitmaps(hicl, query), m=4) == INF

    def test_single_covering_cell(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a}))])
        leaf = grid.locate_leaf((1.0, 1.0))
        f = Frontier([(2.5, leaf.level, leaf.code)])
        # One cell covering 'a' at mdist 2.5 -> contribution 2.5.
        assert lower_bound_distance([f], QueryBitmaps(hicl, query), m=4) == pytest.approx(2.5)

    def test_cap_by_mth_cell(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        # Query wants both a and b; frontier holds one a-cell and one b-cell.
        query = Query([QueryPoint(1.0, 1.0, frozenset({a, b}))])
        leaf_a = grid.locate_leaf((1.0, 1.0))
        leaf_b = grid.locate_leaf((9.0, 9.0))
        f = Frontier([(1.0, leaf_a.level, leaf_a.code), (4.0, leaf_b.level, leaf_b.code)])
        # Virtual cover: a@1.0 + b@4.0 = 5.0, capped by m-th (=2nd) cell 4.0.
        assert lower_bound_distance([f], QueryBitmaps(hicl, query), m=2) == pytest.approx(4.0)

    def test_uncoverable_virtual_with_few_cells_is_inf(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a, b}))])
        leaf_a = grid.locate_leaf((1.0, 1.0))
        f = Frontier([(1.0, leaf_a.level, leaf_a.code)])  # only covers 'a'
        # Fewer cells than m and no way to cover b -> inf (sound: frontier
        # is the complete unvisited region).
        assert lower_bound_distance([f], QueryBitmaps(hicl, query), m=4) == INF

    def test_sums_over_query_points(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        query = Query(
            [
                QueryPoint(1.0, 1.0, frozenset({a})),
                QueryPoint(9.0, 9.0, frozenset({b})),
            ]
        )
        leaf_a = grid.locate_leaf((1.0, 1.0))
        leaf_b = grid.locate_leaf((9.0, 9.0))
        fa = Frontier([(1.5, leaf_a.level, leaf_a.code)])
        fb = Frontier([(2.5, leaf_b.level, leaf_b.code)])
        got = lower_bound_distance([fa, fb], QueryBitmaps(hicl, query), m=4)
        assert got == pytest.approx(4.0)
