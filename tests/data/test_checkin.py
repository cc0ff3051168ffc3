"""Unit tests for check-in grouping (the paper's trajectory construction)."""

from repro.data.checkin import checkin_columns
from repro.model.database import TrajectoryDatabase
from repro.model.vocabulary import Vocabulary


def group_checkins_into_trajectories(records):
    """Group ``(user, venue, t, activity ids)`` records (x = venue, y = 0)
    and read the rows back as trajectory views."""
    users, venues, times, acts = zip(*records)
    columns = checkin_columns(
        users,
        [(float(v), 0.0) for v in venues],
        [float(t) for t in times],
        venues,
        [len(a) for a in acts],
        [a for point in acts for a in point],
    )
    return list(TrajectoryDatabase(columns, Vocabulary(["food", "coffee"])))


def _ci(user, venue, t, acts=(0,)):
    return (user, venue, t, acts)


class TestGrouping:
    def test_one_trajectory_per_user(self):
        records = [_ci(1, 10, 0), _ci(2, 20, 0), _ci(1, 11, 1)]
        trs = group_checkins_into_trajectories(records)
        assert len(trs) == 2
        assert [len(t) for t in trs] == [2, 1]

    def test_chronological_order_within_user(self):
        records = [_ci(1, 30, 5), _ci(1, 10, 1), _ci(1, 20, 3)]
        (tr,) = group_checkins_into_trajectories(records)
        assert [p.venue_id for p in tr] == [10, 20, 30]
        assert [p.timestamp for p in tr] == [1.0, 3.0, 5.0]
        assert [p.x for p in tr] == [10.0, 20.0, 30.0]

    def test_trajectory_ids_dense_by_user_order(self):
        records = [_ci(9, 1, 0), _ci(3, 2, 0), _ci(7, 3, 0)]
        trs = group_checkins_into_trajectories(records)
        assert [t.trajectory_id for t in trs] == [0, 1, 2]
        # users sorted: 3 -> 0, 7 -> 1, 9 -> 2
        assert trs[0][0].venue_id == 2
        assert trs[1][0].venue_id == 3

    def test_activities_follow_their_checkin(self):
        records = [_ci(1, 2, 5, acts=(1, 0)), _ci(1, 1, 0, acts=(1,))]
        (tr,) = group_checkins_into_trajectories(records)
        assert [p.activities for p in tr] == [frozenset({1}), frozenset({0, 1})]
        assert tr.columns.activities.tolist() == [1, 0, 1]  # ascending per point

    def test_timestamp_tie_broken_by_venue(self):
        records = [_ci(1, 5, 0), _ci(1, 2, 0)]
        (tr,) = group_checkins_into_trajectories(records)
        assert [p.venue_id for p in tr] == [2, 5]

    def test_empty_activity_checkins_preserved(self):
        (tr,) = group_checkins_into_trajectories([_ci(1, 1, 0, acts=())])
        assert tr[0].activities == frozenset()
