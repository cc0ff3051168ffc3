"""Columnar (structure-of-arrays) image of a trajectory set.

The object model — :class:`~repro.model.trajectory.ActivityTrajectory`
holding tuples of frozen :class:`~repro.model.point.TrajectoryPoint`s —
is what the paper's definitions talk about, but it is a terrible shape to
pickle: a fleet snapshot serialises millions of tiny Python objects, and
the receiver re-materialises all of them.  This module defines the flat
alternative: the whole trajectory set as seven contiguous NumPy arrays
(coordinates, per-point activity postings, and the offset arrays that
delimit trajectories and postings), convertible losslessly to and from
the object model.

No production path builds a database from this image today: the process
fleet hands its workers the object snapshot, which costs nothing under
the ``fork`` start method (the initializer's arguments are inherited, not
pickled).  The image stays for two reasons: it is the array layout a
database-wide CSR activity store would be built on (ROADMAP direction
2(iii)), and it is the cheap wire format should a ``spawn`` /
``forkserver`` platform become a target — a :class:`ColumnarArrays`
passed by value pickles and loads in a small fraction of the object
snapshot's time.

Layout (``T`` trajectories, ``P`` points, ``A`` activity occurrences)::

    traj_ids       (T,)    int64   trajectory IDs, in database order
    point_offsets  (T+1,)  int64   trajectory t owns points
                                   [point_offsets[t], point_offsets[t+1])
    xy             (P, 2)  float64 point coordinates
    act_offsets    (P+1,)  int64   point p owns activity occurrences
                                   [act_offsets[p], act_offsets[p+1])
    act_values     (A,)    int64   activity IDs, grouped by point
    timestamps     (P,)    float64 check-in time; NaN encodes None
    venues         (P,)    int64   venue ID; -1 encodes None

Determinism: within one point, ``act_values`` keeps the iteration order
of the point's ``activities`` frozenset, so a round-tripped trajectory's
derived structures equal the original's (``==`` on every point, posting
list, and union).  Dict/set *iteration* order is not guaranteed to
survive (frozenset layout is not a pure function of insertion order),
and nothing depends on it: posting lists are read by key, set reductions
are order-free, and the APL's pickled size — the only thing disk
accounting sees — is key-order independent.  Rankings and work counters
therefore stay byte-identical between the object- and array-backed
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

from repro.model.trajectory import ActivityTrajectory

#: Sentinel for "no venue" in the int64 venue column (real IDs are >= 0).
NO_VENUE = -1


@dataclass(frozen=True)
class ColumnarArrays:
    """One trajectory set as seven flat arrays (see module docstring)."""

    traj_ids: np.ndarray
    point_offsets: np.ndarray
    xy: np.ndarray
    act_offsets: np.ndarray
    act_values: np.ndarray
    timestamps: np.ndarray
    venues: np.ndarray

    @property
    def n_trajectories(self) -> int:
        return len(self.traj_ids)

    @property
    def n_points(self) -> int:
        return len(self.xy)

    @property
    def n_postings(self) -> int:
        return len(self.act_values)

    def field_arrays(self) -> List[Tuple[str, np.ndarray]]:
        """``(name, array)`` pairs in declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def nbytes(self) -> int:
        return sum(arr.nbytes for _name, arr in self.field_arrays())


def trajectories_to_arrays(
    trajectories: Sequence[ActivityTrajectory],
) -> ColumnarArrays:
    """Flatten *trajectories* into one :class:`ColumnarArrays`.

    Raises
    ------
    ValueError
        On a NaN timestamp or negative venue ID — both collide with the
        columns' None sentinels and would silently decode as None.
    """
    traj_ids: List[int] = []
    point_offsets: List[int] = [0]
    xy: List[Tuple[float, float]] = []
    act_offsets: List[int] = [0]
    act_values: List[int] = []
    timestamps: List[float] = []
    venues: List[int] = []
    for trajectory in trajectories:
        traj_ids.append(trajectory.trajectory_id)
        for point in trajectory.points:
            xy.append((point.x, point.y))
            # Frozenset iteration order, preserved verbatim — the decode
            # side rebuilds each point's frozenset from exactly this
            # sequence (values are what matter; see the module docstring
            # on iteration order).
            acts = tuple(point.activities)
            act_values.extend(acts)
            act_offsets.append(len(act_values))
            if point.timestamp is None:
                timestamps.append(np.nan)
            else:
                ts = float(point.timestamp)
                if np.isnan(ts):
                    raise ValueError(
                        "NaN timestamp collides with the None sentinel"
                    )
                timestamps.append(ts)
            if point.venue_id is None:
                venues.append(NO_VENUE)
            else:
                vid = int(point.venue_id)
                if vid < 0:
                    raise ValueError(
                        f"negative venue id {vid} collides with the None sentinel"
                    )
                venues.append(vid)
        point_offsets.append(len(xy))
    return ColumnarArrays(
        traj_ids=np.asarray(traj_ids, dtype=np.int64),
        point_offsets=np.asarray(point_offsets, dtype=np.int64),
        xy=np.asarray(xy, dtype=np.float64).reshape(len(xy), 2),
        act_offsets=np.asarray(act_offsets, dtype=np.int64),
        act_values=np.asarray(act_values, dtype=np.int64),
        timestamps=np.asarray(timestamps, dtype=np.float64),
        venues=np.asarray(venues, dtype=np.int64),
    )


def arrays_to_trajectories(arrays: ColumnarArrays) -> List[ActivityTrajectory]:
    """Rebuild array-backed :class:`ActivityTrajectory` objects over the
    columns of *arrays* — points, posting lists, and coordinate matrices
    all view (never copy) the shared columns and materialise lazily."""
    traj_ids = arrays.traj_ids.tolist()
    point_offsets = arrays.point_offsets.tolist()
    out: List[ActivityTrajectory] = []
    for t, tid in enumerate(traj_ids):
        lo, hi = point_offsets[t], point_offsets[t + 1]
        out.append(
            ActivityTrajectory.from_arrays(
                tid,
                coords=arrays.xy[lo:hi],
                act_values=arrays.act_values,
                act_offsets=arrays.act_offsets[lo : hi + 1],
                timestamps=arrays.timestamps[lo:hi],
                venues=arrays.venues[lo:hi],
            )
        )
    return out
