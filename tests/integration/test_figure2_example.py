"""Reproduction of the paper's Figure 2 index walkthrough.

Figure 2 shows three 5-point trajectories on a depth-2 grid and the
resulting GAT components, including the activity sketches
(Tr1: [a,b][c,e], Tr2: [a,c][d,f], Tr3: [b,c][e,f]) and the Section V-C
claim that Tr3's sketch rejects the query {a,...,d,...} because it covers
neither a nor d.
"""

import pytest

from repro.index.gat.tas import TrajectorySketch

A, B, C, D, E, F = range(6)


class TestFigure2Sketches:
    def test_tr1_sketch(self):
        # Tr1 activities: {d}, {a,c}, {b}, {c}, {d,e} -> union {a..e}.
        sketch = TrajectorySketch.from_activities({A, B, C, D, E}, 2)
        # Contiguous 0..4: the best 2-interval split is any single-gap cut;
        # all gaps equal 1, the first largest gap is chosen deterministically.
        assert sketch.covers_all({A, B, C, D, E})
        assert not sketch.covers(F)

    def test_tr2_sketch_covers_all_six(self):
        sketch = TrajectorySketch.from_activities({A, B, C, D, E, F}, 2)
        assert sketch.covers_all({A, B, C, D, E, F})

    def test_tr3_sketch_is_bc_ef(self):
        """Figure 2(iii): Tr3 -> [b,c] [e,f]."""
        sketch = TrajectorySketch.from_activities({B, C, E, F}, 2)
        assert sketch.intervals == ((B, C), (E, F))

    def test_tr3_rejected_for_query_a_d(self):
        """Section V-C: 'its activity sketch [b,c] ∪ [e,f] does not contain
        the query activities a and d.  Hence Tr3 is not a valid candidate.'"""
        sketch = TrajectorySketch.from_activities({B, C, E, F}, 2)
        query_activities = {A, B, C, D, E}  # q1{a,b} q2{c,d} q3{e}
        assert not sketch.covers(A)
        assert not sketch.covers(D)
        assert not sketch.covers_all(query_activities)


class TestFigure2EndToEnd:
    def test_gat_over_figure2_trajectories(self):
        """Index the three Figure 2 trajectories and check ITL/HICL contents
        roughly: every activity is findable and Tr3 never survives the
        validation for the Figure 1 query activities."""
        from repro.core.engine import GATSearchEngine
        from repro.core.query import Query, QueryPoint
        from repro.index.gat.index import GATConfig, GATIndex
        from repro.model.database import TrajectoryDatabase
        from repro.model.point import TrajectoryPoint
        from repro.model.trajectory import ActivityTrajectory
        from repro.model.vocabulary import Vocabulary

        acts = {
            1: [{D}, {A, C}, {B}, {C}, {D, E}],
            2: [{A}, {B, C}, {C, D}, {E}, {F}],
            3: [{C, E}, {B}, {B, C}, {E}, {F}],
        }
        trajectories = [
            ActivityTrajectory(
                tid,
                [
                    TrajectoryPoint(float(j), float(tid), frozenset(a))
                    for j, a in enumerate(sets)
                ],
            )
            for tid, sets in acts.items()
        ]
        db = TrajectoryDatabase(trajectories, Vocabulary(list("abcdef")))
        index = GATIndex.build(db, GATConfig(depth=2, memory_levels=2))
        engine = GATSearchEngine(index)
        query = Query(
            [
                QueryPoint(0.0, 0.0, frozenset({A, B})),
                QueryPoint(2.0, 0.0, frozenset({C, D})),
                QueryPoint(4.0, 0.0, frozenset({E})),
            ]
        )
        ctx = engine.execute(query, k=3)
        ids = [r.trajectory_id for r in ctx.ranked]
        assert 3 not in ids  # Tr3 lacks a and d
        assert set(ids) <= {1, 2}
        assert ctx.stats.tas_pruned >= 1  # Tr3 died at the sketch
