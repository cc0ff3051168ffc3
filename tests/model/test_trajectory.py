"""Unit tests for trajectory points and activity trajectories."""

import pytest

from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory


def _tr(activity_sets, tid=0):
    points = [
        TrajectoryPoint(float(i), 0.0, frozenset(acts))
        for i, acts in enumerate(activity_sets)
    ]
    return ActivityTrajectory(tid, points)


class TestTrajectoryPoint:
    def test_coord(self):
        p = TrajectoryPoint(1.5, -2.0, frozenset({1}))
        assert p.coord == (1.5, -2.0)

    def test_empty_activities_allowed(self):
        p = TrajectoryPoint(0, 0)
        assert p.activities == frozenset()

    def test_points_are_immutable(self):
        p = TrajectoryPoint(0, 0)
        with pytest.raises(AttributeError):
            p.x = 5.0


class TestActivityTrajectory:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActivityTrajectory(0, [])

    def test_sequence_protocol(self):
        tr = _tr([{1}, {2}, {}])
        assert len(tr) == 3
        assert tr[1].activities == frozenset({2})
        assert [p.x for p in tr] == [0.0, 1.0, 2.0]

    def test_activity_union(self):
        tr = _tr([{1, 2}, {}, {2, 3}])
        assert tr.activity_union == frozenset({1, 2, 3})

    def test_posting_lists_positions_ascending(self):
        tr = _tr([{1}, {2, 1}, {}, {1}])
        assert tr.posting_lists.get(1, ()) == (0, 1, 3)
        assert tr.posting_lists.get(2, ()) == (1,)
        assert tr.posting_lists.get(99, ()) == ()

    def test_posting_lists_match_figure2(self):
        # Figure 2(iv), Tr1: a->p1,2  b->p1,3  c->p1,2 p1,4  d->p1,1 p1,5  e->p1,5
        a, b, c, d, e = range(5)
        tr = _tr([{d}, {a, c}, {b}, {c}, {d, e}], tid=1)
        assert tr.posting_lists.get(a, ()) == (1,)
        assert tr.posting_lists.get(b, ()) == (2,)
        assert tr.posting_lists.get(c, ()) == (1, 3)
        assert tr.posting_lists.get(d, ()) == (0, 4)
        assert tr.posting_lists.get(e, ()) == (4,)
