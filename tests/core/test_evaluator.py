"""Unit tests for the shared match evaluator."""

import math

import pytest
from best_match_oracle import best_match_distance

from repro.core.evaluator import MatchEvaluator
from repro.core.query import Query, QueryPoint
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory

INF = math.inf


def _tr(specs, tid=0):
    return ActivityTrajectory(
        tid, [TrajectoryPoint(float(x), 0.0, frozenset(a)) for x, a in specs]
    )


def _q(specs):
    return Query([QueryPoint(float(x), 0.0, frozenset(a)) for x, a in specs])


class TestDmm:
    def test_lemma1_decomposition(self):
        """Dmm must equal the sum of independent per-point Dmpm values."""
        tr = _tr([(0, {1}), (5, {2}), (10, {1, 2})])
        q = _q([(0, {1}), (10, {2})])
        ev = MatchEvaluator()
        assert ev.dmm(q, tr) == pytest.approx(ev.dmpm(q[0], tr) + ev.dmpm(q[1], tr))

    def test_inf_when_any_point_unmatched(self):
        tr = _tr([(0, {1})])
        q = _q([(0, {1}), (1, {2})])
        assert MatchEvaluator().dmm(q, tr) == INF

    def test_explained_agrees_with_plain(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        plain = ev.dmm(fig1.query, fig1.tr1)
        explained, matches = ev.dmm_explained(fig1.query, fig1.tr1)
        assert plain == explained == 45.0
        assert len(matches) == len(fig1.query)

    def test_stats_counted(self):
        ev = MatchEvaluator()
        tr = _tr([(0, {1})])
        q = _q([(0, {1})])
        ev.dmm(q, tr)
        ev.dmm(q, tr)
        assert ev.stats.dmm_evaluations == 2


class TestDmom:
    def test_dmm_gate_skips_dp(self):
        """When Dmm already exceeds the threshold, Dmom returns inf without
        running the DP (Lemma 3 gating)."""
        tr = _tr([(0, {1}), (100, {2})])
        q = _q([(0, {1}), (0, {2})])
        ev = MatchEvaluator()
        dmm = ev.dmm(q, tr)
        assert ev.dmom(q, tr, threshold=dmm / 2) == INF

    def test_dmom_at_least_dmm(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        for tr in (fig1.tr1, fig1.tr2):
            assert ev.dmom(fig1.query, tr) >= ev.dmm(fig1.query, tr)

    def test_check_order_flag(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        with_check = ev.dmom(fig1.query, fig1.tr1)
        without = ev.dmom(fig1.query, fig1.tr1, check_order=False)
        assert with_check == without == 56.0

    def test_explained(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        d, matches = ev.dmom_explained(fig1.query, fig1.tr1)
        assert d == 56.0
        assert matches == ((1, 2), (3, 4), (4,))


class TestBestMatchDistance:
    def test_lemma2_dbm_lower_bounds_dmm(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        for tr in (fig1.tr1, fig1.tr2):
            assert best_match_distance(fig1.query, tr, fig1.metric) <= ev.dmm(fig1.query, tr)

    def test_figure1_best_match_values(self, fig1):
        """Figure 1's motivating claim: under pure best-match distance Tr1
        (2 + 3 + 1 = 6) wrongly beats Tr2 (6 + 4 + 3 = 13)."""
        assert best_match_distance(fig1.query, fig1.tr1, fig1.metric) == 6.0
        assert best_match_distance(fig1.query, fig1.tr2, fig1.metric) == 13.0
