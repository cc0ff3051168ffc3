"""Lemma-level invariants checked on real generated data (not synthetic
hypothesis inputs): the paper's Lemmas 1-4 on the small fixture database.
"""

import math
import random

import pytest
from best_match_oracle import best_match_distance

from repro.core.evaluator import MatchEvaluator
from repro.core.match import INFINITY, PointMatchTable
from repro.core.order_match import minimum_order_match_distance
from repro.core.query import Query, QueryPoint


@pytest.fixture(scope="module")
def cases(small_db):
    """(query, trajectory) pairs where the trajectory matches the query."""
    rng = random.Random(2024)
    ev = MatchEvaluator()
    out = []
    attempts = 0
    while len(out) < 20 and attempts < 500:
        attempts += 1
        tr = small_db.trajectories[rng.randrange(len(small_db))]
        pts = [p for p in tr if p.activities]
        if len(pts) < 2:
            continue
        picked = rng.sample(pts, 2)
        q = Query(
            [
                QueryPoint(p.x, p.y, frozenset(rng.sample(sorted(p.activities), 1)))
                for p in picked
            ]
        )
        if ev.dmm(q, tr) < INFINITY:
            out.append((q, tr))
    assert len(out) == 20
    return out


def test_lemma1_minimum_match_decomposes(cases):
    """Lemma 1: Dmm = sum of per-query-point Dmpm."""
    ev = MatchEvaluator()
    for q, tr in cases:
        total = sum(ev.dmpm(qp, tr) for qp in q)
        assert ev.dmm(q, tr) == pytest.approx(total)


def test_lemma2_best_match_lower_bounds(cases, small_db):
    """Lemma 2: Dbm <= Dmm, for the matching trajectory AND for every
    other trajectory in the database."""
    ev = MatchEvaluator()
    for q, _tr in cases[:5]:
        for other in small_db.trajectories[::10]:
            dmm = ev.dmm(q, other)
            if dmm < INFINITY:
                assert best_match_distance(q, other) <= dmm + 1e-9


def test_lemma3_order_sensitivity_never_cheaper(cases):
    """Lemma 3: Dmm <= Dmom, and equality when the per-point minima are
    already ordered."""
    ev = MatchEvaluator()
    for q, tr in cases:
        dmm, matches = ev.dmm_explained(q, tr)
        dmom = minimum_order_match_distance(q, tr, ev.metric)
        if dmom < INFINITY:
            assert dmm <= dmom + 1e-9
            ordered = all(
                max(matches[i]) <= min(matches[i + 1])
                for i in range(len(matches) - 1)
                if matches[i] and matches[i + 1]
            )
            if ordered:
                assert dmom == pytest.approx(dmm)


def test_lemma4_g_matrix_monotonicity(cases):
    """Lemma 4: G is non-increasing along rows (j grows) and
    non-decreasing down columns (i grows)."""
    ev = MatchEvaluator()
    for q, tr in cases[:8]:
        g = []
        minimum_order_match_distance(q, tr, ev.metric, g_matrix=g)
        for row in g:
            finite = [v for v in row[1:]]
            for a, b in zip(finite, finite[1:]):
                assert b <= a + 1e-9  # property 1: j' > j -> G(i,j') <= G(i,j)
        for i in range(1, len(g)):
            for j in range(1, len(g[i])):
                assert g[i][j] >= g[i - 1][j] - 1e-9  # property 2


def test_theorem1_lower_bound_soundness_on_engine(small_db):
    """Theorem 1 applied: no trajectory the engine returns may beat the
    lower bound that terminated the search — indirectly verified by
    agreement with exhaustive scan on fresh random queries."""
    from repro.core.engine import GATSearchEngine
    from repro.index.gat.index import GATConfig, GATIndex

    ev = MatchEvaluator()
    engine = GATSearchEngine(GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4)))
    rng = random.Random(7)
    for _ in range(8):
        tr = small_db.trajectories[rng.randrange(len(small_db))]
        pts = [p for p in tr if p.activities]
        if len(pts) < 2:
            continue
        q = Query(
            [
                QueryPoint(p.x, p.y, frozenset(rng.sample(sorted(p.activities), 1)))
                for p in rng.sample(pts, 2)
            ]
        )
        brute = sorted(
            d for d in (ev.dmm(q, t) for t in small_db) if not math.isinf(d)
        )[:4]
        got = [r.distance for r in engine.atsq(q, 4)]
        assert got == pytest.approx(brute)
