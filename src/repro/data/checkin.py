"""Check-in records and their grouping into activity trajectories.

Section VII-A: "Each check-in record of Foursquare contains the user ID,
venue with geo-location (place of interest), time of check-in, and the tips
written in plain English.  We put the records belonging to the same user in
the chronological order to form the trajectory of this user.  The activity
set for each place of a trajectory is generated by the words/phrases in the
tips associated with the location."

This module models exactly that pipeline for both synthetic and imported
data: a flat list of :class:`CheckIn` records becomes one trajectory per
user via :func:`group_checkins_into_trajectories`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List

from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory


@dataclass(frozen=True, slots=True)
class CheckIn:
    """One check-in record.

    ``activities`` carries the already-extracted activity names (the paper
    treats tip-to-activity extraction as orthogonal, and so do we — the
    generator directly emits activity names).
    """

    user_id: int
    venue_id: int
    x: float
    y: float
    timestamp: float
    activities: FrozenSet[str] = field(default_factory=frozenset)


def group_checkins_into_trajectories(
    checkins: Iterable[CheckIn],
    encode,
) -> List[ActivityTrajectory]:
    """Group check-ins per user in chronological order (the paper's rule).

    Parameters
    ----------
    checkins:
        Flat iterable of check-in records, any order.
    encode:
        Callable mapping an iterable of activity *names* to a frozenset of
        activity *IDs* (normally ``vocabulary.encode``).

    Returns
    -------
    One :class:`ActivityTrajectory` per distinct user, with trajectory IDs
    assigned densely in ascending user-ID order so output is deterministic.
    """
    per_user: Dict[int, List[CheckIn]] = {}
    for record in checkins:
        per_user.setdefault(record.user_id, []).append(record)

    trajectories: List[ActivityTrajectory] = []
    for tid, user_id in enumerate(sorted(per_user)):
        records = sorted(per_user[user_id], key=lambda r: (r.timestamp, r.venue_id))
        points = [
            TrajectoryPoint(
                r.x,
                r.y,
                encode(r.activities),
                timestamp=r.timestamp,
                venue_id=r.venue_id,
            )
            for r in records
        ]
        trajectories.append(ActivityTrajectory(tid, points))
    return trajectories
