"""Check-ins and their grouping into activity trajectories.

Section VII-A: "Each check-in record of Foursquare contains the user ID,
venue with geo-location (place of interest), time of check-in, and the tips
written in plain English.  We put the records belonging to the same user in
the chronological order to form the trajectory of this user.  The activity
set for each place of a trajectory is generated by the words/phrases in the
tips associated with the location."

This module models exactly that rule on flat check-in arrays (the
generator's output): :func:`checkin_columns` turns them into the
database's columns, one row per user.
"""

from __future__ import annotations

import numpy as np

from repro.model.trajectory import TrajectoryColumns


def checkin_columns(
    users, xy, timestamps, venues, activity_counts, activities
) -> TrajectoryColumns:
    """Group check-ins per user in chronological order (the paper's rule),
    as the database's columns.

    Check-in ``i`` is user ``users[i]`` at venue ``venues[i]`` (located at
    ``xy[i]``) at ``timestamps[i]``, with the next ``activity_counts[i]``
    entries of *activities* (distinct activity ids, check-ins in order).

    Returns one row per distinct user, with trajectory IDs assigned densely
    in ascending user-ID order so output is deterministic; a user's
    check-ins are ordered by timestamp, ties by venue, and each check-in's
    activity ids ascending.
    """
    users, timestamps, venues, counts, activities = map(
        np.asarray, (users, timestamps, venues, activity_counts, activities)
    )
    order = np.lexsort((venues, timestamps, users))
    by_point = np.lexsort((activities, np.repeat(np.argsort(order), counts)))
    per_user = np.unique(users, return_counts=True)[1]
    return TrajectoryColumns(
        np.arange(len(per_user), dtype=np.int64),
        np.concatenate(([0], np.cumsum(per_user))),
        np.asarray(xy, dtype=np.float64)[order],
        timestamps[order].astype(np.float64),
        venues[order].astype(np.int64),
        np.concatenate(([0], np.cumsum(counts[order]))),
        activities[by_point].astype(np.int64),
    )
