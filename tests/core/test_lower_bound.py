"""Algorithm 2's lower bound: the oracle's semantics on hand-made frontiers
(``bound_oracle``), and the C bound — ``lower_bound_distance``, read off
the walk's heap — equal to the oracle on real walk states, including an
``mdist`` tie at the ``m``-th slot across two levels and contributions
whose sum depends on the order they are added in."""

import math
import random

import pytest
from bound_oracle import Frontier, contributions, frontiers, queue
from bound_oracle import lower_bound_distance as oracle_bound
from python_walk_oracle import QueryBitmaps

from repro.core.context import SearchStats
from repro.core.lower_bound import lower_bound_distance
from repro.core.pipeline import CandidateRetriever
from repro.core.query import Query, QueryPoint
from repro.geometry.primitives import BoundingBox
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
        (before,) = frontiers(retriever)
        nearest = before.nearest(1)[0]
        assert nearest[0] == 0.0 and nearest[1] == 1
        retriever.retrieve(batch=1)  # walks the nearest chain down to a leaf
        (after,) = frontiers(retriever)
        assert nearest not in after.nearest(len(after))
        assert len(after) == len(queue(retriever))
        assert after.nearest(1)[0][0] > 0.0

    def test_remove_absent_is_noop(self):
        """Reading the frontier (and the bound) does not disturb the heap."""
        retriever = self._retriever()
        queue_before = queue(retriever)
        first = frontiers(retriever)[0].nearest(10)
        lower_bound_distance(retriever, 4)
        assert queue(retriever) == queue_before
        assert frontiers(retriever)[0].nearest(10) == first

    def test_mth_distance(self):
        f = Frontier((float(i), 1, i) for i in range(5))
        assert f.mth_distance(3) == 2.0
        assert f.mth_distance(5) == 4.0
        assert f.mth_distance(6) == INF

    def test_bool(self):
        assert not Frontier()
        assert Frontier([(1.0, 1, 0)])


class TestOracleBound:
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
        assert oracle_bound([Frontier()], QueryBitmaps(hicl, query), m=4) == INF

    def test_single_covering_cell(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a}))])
        leaf = grid.locate_leaf((1.0, 1.0))
        f = Frontier([(2.5, leaf.level, leaf.code)])
        # One cell covering 'a' at mdist 2.5 -> contribution 2.5.
        assert oracle_bound([f], QueryBitmaps(hicl, query), m=4) == pytest.approx(2.5)

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
        assert oracle_bound([f], QueryBitmaps(hicl, query), m=2) == pytest.approx(4.0)

    def test_uncoverable_virtual_with_few_cells_is_inf(self, setup):
        db, grid, hicl = setup
        a = db.vocabulary.id_of("a")
        b = db.vocabulary.id_of("b")
        query = Query([QueryPoint(1.0, 1.0, frozenset({a, b}))])
        leaf_a = grid.locate_leaf((1.0, 1.0))
        f = Frontier([(1.0, leaf_a.level, leaf_a.code)])  # only covers 'a'
        # Fewer cells than m and no way to cover b -> inf (sound: frontier
        # is the complete unvisited region).
        assert oracle_bound([f], QueryBitmaps(hicl, query), m=4) == INF

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
        got = oracle_bound([fa, fb], QueryBitmaps(hicl, query), m=4)
        assert got == pytest.approx(4.0)


def _grid_db(seed: int, n: int = 40) -> TrajectoryDatabase:
    """Trajectories on a 0..64 lattice (cell edges at every depth up to 6),
    three activities, corner points pinning the box."""
    rng = random.Random(seed)
    raw = [[(0.0, 0.0, ["a"]), (64.0, 64.0, ["b"])]]
    for _ in range(n):
        raw.append([
            (rng.randrange(0, 65, 4) * 1.0, rng.randrange(0, 65, 4) * 1.0,
             rng.sample(["a", "b", "c"], rng.randint(1, 2)))
            for _ in range(rng.randint(1, 4))
        ])
    return TrajectoryDatabase.from_raw(raw)


def _states(index, query, batch=1, rounds=40):
    """The retriever after its seeding and after every round, with an
    oracle view of the same HICL."""
    retriever = CandidateRetriever(index, query, SearchStats())
    view = QueryBitmaps(index.hicl, query)
    yield retriever, view
    for _ in range(rounds):
        retriever.retrieve(batch)
        yield retriever, view
        if retriever.exhausted:
            return


class TestCBound:
    """``lower_bound_distance`` (``gat_walk_bound``) against the oracle."""

    @pytest.mark.parametrize("memory_levels", [4, 2, 0])
    def test_equals_the_oracle_on_every_round(self, memory_levels):
        db = _grid_db(3)
        index = GATIndex.build(db, GATConfig(depth=4, memory_levels=memory_levels))
        a, b, c = (db.vocabulary.id_of(name) for name in "abc")
        query = Query([QueryPoint(20.0, 36.0, frozenset({a, b})),
                       QueryPoint(70.0, -3.0, frozenset({c})),
                       QueryPoint(32.0, 32.0, frozenset({a, b, c}))])
        checked = 0
        for retriever, view in _states(index, query, batch=2):
            for m in (1, 2, 3, 8):
                assert lower_bound_distance(retriever, m) == oracle_bound(frontiers(retriever), view, m)
                checked += 1
        assert checked > 20

    def test_an_mdist_tie_at_the_mth_slot_across_two_levels(self):
        """On an exact lattice (cell edges at integers) an integer query
        point sees cells of different levels at equal ``mdist`` — a level-3
        cell to its side and a leaf above, say, both queued: wherever the
        ``m``-th and ``m+1``-th nearest tie on ``mdist`` across two levels,
        the bound (``(mdist, level, code)`` order) equals the oracle."""
        db = _grid_db(4)
        index = GATIndex.build(
            db, GATConfig(depth=5, memory_levels=3), bounding_box=BoundingBox(0.0, 0.0, 64.0, 64.0)
        )
        a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
        query = Query([QueryPoint(30.0, 38.0, frozenset({a, b}))])
        ties = 0
        for retriever, view in _states(index, query):
            (frontier,) = frontiers(retriever)
            cells = frontier.nearest(len(frontier))
            for m in range(1, len(cells)):
                (d, level, _), (d_next, level_next, _) = cells[m - 1], cells[m]
                if d == d_next and level != level_next:
                    ties += 1
                    assert lower_bound_distance(retriever, m) == oracle_bound([frontier], view, m)
        assert ties >= 100

    def test_contributions_are_summed_in_query_point_order(self):
        """States whose per-point terms give a different float summed
        back to front: the bound is the front-to-back sum, as the
        oracle's."""
        db = _grid_db(7)
        index = GATIndex.build(db, GATConfig(depth=4, memory_levels=2))
        a, b, c = (db.vocabulary.id_of(name) for name in "abc")
        rng = random.Random(11)
        order_sensitive = 0
        for _ in range(12):
            query = Query([
                QueryPoint(rng.uniform(-30.0, 94.0), rng.uniform(-30.0, 94.0),
                           frozenset(rng.sample([a, b, c], rng.randint(1, 2))))
                for _ in range(4)
            ])
            for retriever, view in _states(index, query, batch=3, rounds=6):
                terms = contributions(frontiers(retriever), view, 3)
                if len(terms) < 4 or INF in terms:
                    continue
                forward, backward = 0.0, 0.0
                for term in terms:
                    forward += term
                for term in reversed(terms):
                    backward += term
                order_sensitive += forward != backward
                assert lower_bound_distance(retriever, 3) == forward
        assert order_sensitive >= 1
