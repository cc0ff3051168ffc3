"""End-to-end reproduction of the paper's Figure 1 motivating example.

The claims verified here, quoting Section I and II:

* under the activity-blind best match distance, Tr1 looks better than Tr2
  ("Tr1 will be taken as the most promising result");
* under the minimum match distance, "Tr2 is considered to be more similar
  to the query than Tr1";
* the minimum matches are exactly the point sets printed in the paper.

Run through the full stack: database -> GAT index -> engine, plus every
baseline searcher.
"""

import pytest
from best_match_oracle import best_match_distance

from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch
from repro.core.engine import GATSearchEngine
from repro.core.evaluator import MatchEvaluator
from repro.index.gat.index import GATConfig, GATIndex


class TestDistanceClaims:
    def test_best_match_prefers_tr1(self, fig1):
        tr1 = best_match_distance(fig1.query, fig1.tr1, fig1.metric)
        assert tr1 < best_match_distance(fig1.query, fig1.tr2, fig1.metric)

    def test_minimum_match_prefers_tr2(self, fig1):
        ev = MatchEvaluator(fig1.metric)
        assert ev.dmm(fig1.query, fig1.tr2) < ev.dmm(fig1.query, fig1.tr1)
        assert ev.dmm(fig1.query, fig1.tr1) == 45.0
        assert ev.dmm(fig1.query, fig1.tr2) == 25.0

    def test_minimum_match_sets(self, fig1):
        """Section II: Tr1.MM(Q) = {{p1,2, p1,3}, {p1,1, p1,2}, {p1,5}} and
        Tr2.MM(Q) = {{p2,1, p2,2}, {p2,3}, {p2,4}} (0-based here)."""
        ev = MatchEvaluator(fig1.metric)
        _d1, m1 = ev.dmm_explained(fig1.query, fig1.tr1)
        assert m1 == ((1, 2), (0, 1), (4,))
        _d2, m2 = ev.dmm_explained(fig1.query, fig1.tr2)
        assert m2 == ((0, 1), (2,), (3,))

    def test_q2_minimum_point_match_is_p11_p12(self, fig1):
        """Section II's Definition 4 walkthrough: {p1,1, p1,2} is the
        minimum point match from Tr1 to q2 (cost 14 + 6 = 20)."""
        ev = MatchEvaluator(fig1.metric)
        assert ev.dmpm(fig1.query[1], fig1.tr1) == 20.0


class TestFullStackRanking:
    def test_all_searchers_rank_tr2_first(self, fig1):
        db = fig1.database
        searchers = [
            GATSearchEngine(
                GATIndex.build(db, GATConfig(depth=3, memory_levels=3)),
                metric=fig1.metric,
            ),
            InvertedListSearch(db, metric=fig1.metric),
            RTreeSearch(db, metric=fig1.metric),
            IRTreeSearch(db, metric=fig1.metric),
        ]
        for s in searchers:
            results = s.atsq(fig1.query, k=2)
            assert [r.trajectory_id for r in results] == [2, 1]
            assert [r.distance for r in results] == [25.0, 45.0]

    def test_all_searchers_oatsq(self, fig1):
        db = fig1.database
        searchers = [
            GATSearchEngine(
                GATIndex.build(db, GATConfig(depth=3, memory_levels=3)),
                metric=fig1.metric,
            ),
            InvertedListSearch(db, metric=fig1.metric),
            RTreeSearch(db, metric=fig1.metric),
            IRTreeSearch(db, metric=fig1.metric),
        ]
        for s in searchers:
            results = s.oatsq(fig1.query, k=2)
            assert [r.trajectory_id for r in results] == [2, 1]
            assert [r.distance for r in results] == [25.0, 56.0]
