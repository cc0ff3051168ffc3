"""Exact reproduction of the paper's Algorithm 4 example (Table III) and
the order-sensitive statements made about Figure 1 in Section VI-A."""

import math

import pytest
from order_oracles import order_feasible_strict

from repro.core.evaluator import MatchEvaluator
from repro.core.order_match import (
    matching_index_bounds,
    minimum_order_match,
    minimum_order_match_distance,
    order_feasible,
)

INF = math.inf


class TestTableIII:
    def test_g_matrix_matches_paper(self, fig1):
        g = []
        dist = minimum_order_match_distance(fig1.query, fig1.tr1, fig1.metric, g_matrix=g)
        assert dist == 56.0
        # Table III, 1-based indexing; row 0 is the guardian row.
        assert g[0] == [0.0] * 6
        assert g[1][1:] == [INF, INF, 24.0, 24.0, 24.0]
        assert g[2][1:] == [INF, INF, INF, INF, 55.0]
        assert g[3][1:] == [INF, INF, INF, INF, 56.0]

    def test_compressed_equals_uncompressed(self, fig1):
        full = minimum_order_match_distance(fig1.query, fig1.tr1, fig1.metric, compress=False)
        compressed = minimum_order_match_distance(fig1.query, fig1.tr1, fig1.metric, compress=True)
        assert full == compressed == 56.0

    def test_tr2_order_match_equals_plain_match(self, fig1):
        """Section VI-A: 'Tr2.MOM(Q) is the same as Tr2.MM(Q)'."""
        ev = MatchEvaluator(fig1.metric)
        dmm = ev.dmm(fig1.query, fig1.tr2)
        dmom = minimum_order_match_distance(fig1.query, fig1.tr2, fig1.metric)
        assert dmm == dmom == 25.0

    def test_threshold_early_exit_returns_inf(self, fig1):
        # Row 1 already ends at 24 > 10, so the DP can abort.
        d = minimum_order_match_distance(fig1.query, fig1.tr1, fig1.metric, threshold=10.0)
        assert d == INF


class TestOrderSensitiveMatchOfFigure1:
    def test_tr1_minimum_order_match(self, fig1):
        """Section VI-A: {{p1,2, p1,3}, {p1,4, p1,5}, {p1,5}} is the minimum
        order-sensitive match of Tr1 (0-based: (1,2), (3,4), (4,))."""
        dist, matches = minimum_order_match(fig1.query, fig1.tr1, fig1.metric)
        assert dist == 56.0
        assert matches == ((1, 2), (3, 4), (4,))

    def test_tr1_minimum_point_matches_violate_order(self, fig1):
        """The per-point minima {p1,2, p1,3} (q1) and {p1,1, p1,2} (q2) do
        not comply with the q1 -> q2 order — the reason Lemma 1 fails."""
        ev = MatchEvaluator(fig1.metric)
        _d, matches = ev.dmm_explained(fig1.query, fig1.tr1)
        assert matches[0] == (1, 2)
        assert matches[1] == (0, 1)
        assert max(matches[0]) > min(matches[1])  # order violated

    def test_lemma3_gap_on_tr1(self, fig1):
        """Dmm(Q, Tr1) = 45 < 56 = Dmom(Q, Tr1): the lower bound is strict
        here because the minimum point matches are out of order."""
        ev = MatchEvaluator(fig1.metric)
        assert ev.dmm(fig1.query, fig1.tr1) == 45.0
        assert minimum_order_match_distance(fig1.query, fig1.tr1, fig1.metric) == 56.0


class TestMIBValidation:
    def test_bounds_on_tr1(self, fig1):
        q1, q2, q3 = fig1.query
        assert matching_index_bounds(fig1.tr1, q1) == (1, 2)  # a@p2, b@p3
        assert matching_index_bounds(fig1.tr1, q2) == (0, 4)  # c,d span p1..p5
        assert matching_index_bounds(fig1.tr1, q3) == (4, 4)  # e@p5

    def test_fig1_trajectories_feasible(self, fig1):
        assert order_feasible(fig1.tr1, fig1.query)
        assert order_feasible(fig1.tr2, fig1.query)
        assert order_feasible_strict(fig1.tr1, fig1.query)
        assert order_feasible_strict(fig1.tr2, fig1.query)

    def test_missing_activity_infeasible(self, fig1):
        from repro.core.query import Query, QueryPoint

        q = Query([QueryPoint(0.0, -1.0, frozenset({42}))])
        assert matching_index_bounds(fig1.tr1, q[0]) is None
        assert not order_feasible(fig1.tr1, q)
        assert not order_feasible_strict(fig1.tr1, q)

    def test_reversed_query_rejected_by_mib(self, fig1):
        """Asking for e (only at p5) before a (only at p2) cannot be
        order-matched by Tr1 and the MIB check sees it."""
        from repro.core.query import Query, QueryPoint

        E, A_ = 4, 0
        q = Query(
            [
                QueryPoint(2.0, -1.0, frozenset({E})),
                QueryPoint(0.0, -1.0, frozenset({A_})),
            ]
        )
        assert not order_feasible(fig1.tr1, q)
        assert minimum_order_match_distance(q, fig1.tr1, fig1.metric) == INF
