"""Activity trajectories: the column image of the data and its record view.

Definition 2: ``Tr = (p1, p2, ..., pn)`` where each ``p_i`` is a geo-point
with an attached activity set.  The data lives once, as columns
(:class:`TrajectoryColumns`): ``N`` trajectories, ``T`` points and ``A``
activity occurrences in flat arrays, a trajectory being a **row** — its
slice of the point columns.  The database owns these columns, and the
APL row store of the GAT index (:mod:`repro.index.gat.apl`) indexes the
same arrays instead of holding a copy.

:class:`ActivityTrajectory` is the record view of one row, built when a
reader asks for it and holding nothing but the row's address.  Its points,
``activity_union`` (what a baseline checks each candidate against) and
``posting_lists`` (per activity, the positions of the points that contain
it — the in-memory form of the paper's Activity Posting List) are computed
from the columns on each access.  The scalar kernel scores from views;
the block kernel reads the arrays — a view's own row of its columns when
a baseline scores one trajectory at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.model.point import TrajectoryPoint

#: Activity ids are unsigned 32-bit: the GAT keys pack one beside a row or cell.
ACTIVITY_BITS = 32
#: The venue column's "no venue" value.
NO_VENUE = np.iinfo(np.int64).min

#: One point as producers hand it over: ``(x, y, activity ids, timestamp |
#: None, venue | None)``.
PointRecord = Tuple[float, float, Iterable[int], object, object]


def _offsets(lengths) -> np.ndarray:
    """``(n + 1,)`` CSR offsets of *n* consecutive slices of *lengths*."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(starts[i], stops[i])``."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


@dataclass(frozen=True, eq=False)
class TrajectoryColumns:
    """``N`` trajectories as flat, read-only arrays.

    Row ``r`` owns points ``point_offsets[r]:point_offsets[r + 1]`` of
    ``xy``, ``timestamps`` and ``venues``; point ``p`` owns activities
    ``activity_offsets[p]:activity_offsets[p + 1]`` of ``activities``,
    ascending.  A missing timestamp is NaN and a missing venue
    :data:`NO_VENUE`.  Columns are never edited: an append builds new
    arrays, so a snapshot compares (by identity) and pickles as one value.
    """

    ids: np.ndarray  #: ``(N,)`` int64 trajectory id of each row
    point_offsets: np.ndarray  #: ``(N+1,)`` int64
    xy: np.ndarray  #: ``(T, 2)`` float64 coordinates
    timestamps: np.ndarray  #: ``(T,)`` float64
    venues: np.ndarray  #: ``(T,)`` int64
    activity_offsets: np.ndarray  #: ``(T+1,)`` int64
    activities: np.ndarray  #: ``(A,)`` int64 activity ids

    def __post_init__(self) -> None:
        for array in vars(self).values():
            array.flags.writeable = False

    @classmethod
    def from_points(
        cls, ids: Iterable[int], trajectories: Iterable[Sequence[PointRecord]]
    ) -> "TrajectoryColumns":
        """Columns of the trajectories *ids*, each given as its sequence of
        :data:`PointRecord`.  Converts only; :meth:`check` validates."""
        lengths: List[int] = []
        records: List[PointRecord] = []
        for points in trajectories:
            lengths.append(len(points))
            records += points
        x, y, activities, timestamps, venues = zip(*records) if records else ((),) * 5
        activities = [sorted(set(point)) for point in activities]
        return cls(
            ids=np.array(list(ids), dtype=np.int64),
            point_offsets=_offsets(lengths),
            xy=np.array([x, y], dtype=np.float64).T.copy(),
            timestamps=np.array([np.nan if t is None else t for t in timestamps], dtype=np.float64),
            venues=np.array([NO_VENUE if v is None else v for v in venues], dtype=np.int64),
            activity_offsets=_offsets(list(map(len, activities))),
            activities=np.array(list(chain.from_iterable(activities)), dtype=np.int64),
        )

    @classmethod
    def of(cls, trajectories: Iterable["ActivityTrajectory"]) -> "TrajectoryColumns":
        """The rows of *trajectories* (views or objects), in order."""
        return cls.concat([t.columns.take([t.row]) for t in trajectories])

    @classmethod
    def concat(cls, parts: Sequence["TrajectoryColumns"]) -> "TrajectoryColumns":
        """The rows of every part, in order."""
        if len(parts) < 2:
            return parts[0] if parts else cls.from_points((), ())
        joined = {f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)}
        for name in ("point_offsets", "activity_offsets"):
            joined[name] = _offsets(np.concatenate([np.diff(getattr(p, name)) for p in parts]))
        return cls(**joined)

    def take(self, rows) -> "TrajectoryColumns":
        """The columns of *rows*, in that order (a gather)."""
        rows = np.asarray(rows, dtype=np.int64)
        po, ao = self.point_offsets, self.activity_offsets
        points = _ranges(po[rows], po[rows + 1])
        occurrences = _ranges(ao[points], ao[points + 1])
        return TrajectoryColumns(
            self.ids[rows], _offsets(po[rows + 1] - po[rows]),
            self.xy[points], self.timestamps[points], self.venues[points],
            _offsets(ao[points + 1] - ao[points]), self.activities[occurrences],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def check(self) -> None:
        """Raise ``ValueError`` unless every array has its documented dtype
        and shape, each offsets array starts at 0, never decreases and
        ends at the length of the column it indexes, every row has a
        point, every coordinate is finite and every activity id fits
        :data:`ACTIVITY_BITS` unsigned bits — the one validation every
        append (and so every load from disk) runs."""
        n, t, a = (c.shape[0] if c.ndim else -1 for c in (self.ids, self.xy, self.activities))
        shapes = {"ids": (n,), "point_offsets": (n + 1,), "xy": (t, 2), "timestamps": (t,),
                  "venues": (t,), "activity_offsets": (t + 1,), "activities": (a,)}
        for name, shape in shapes.items():
            array = getattr(self, name)
            dtype = np.float64 if name in ("xy", "timestamps") else np.int64
            if array.dtype != dtype or array.shape != shape:
                raise ValueError(f"{name} must be {np.dtype(dtype)} of shape {shape}, "
                                 f"not {array.dtype} of shape {array.shape}")
        for name, end in (("point_offsets", t), ("activity_offsets", a)):
            offsets = getattr(self, name)
            if offsets[0] != 0 or offsets[-1] != end or (np.diff(offsets) < 0).any():
                raise ValueError(f"{name} must rise from 0 to {end} without decreasing")
        empty = np.flatnonzero(np.diff(self.point_offsets) == 0)
        if len(empty):
            raise ValueError(f"trajectory {self.ids[empty[0]]}: a trajectory needs a point")
        bad = np.flatnonzero(~np.isfinite(self.xy).all(axis=1))
        if len(bad):
            row = np.searchsorted(self.point_offsets, bad[0], side="right") - 1
            raise ValueError(f"trajectory {self.ids[row]}: non-finite coordinate {self.xy[bad[0]]}")
        acts = self.activities
        if len(acts) and not 0 <= acts.min() <= acts.max() < 1 << ACTIVITY_BITS:
            raise ValueError(f"activity ids must fit {ACTIVITY_BITS} unsigned bits")

    def point_records(self, row: int) -> List[PointRecord]:
        """Row *row*'s points as :data:`PointRecord` tuples (activity ids as
        an ascending list, ``None`` for a missing timestamp or venue)."""
        lo, hi = self.point_offsets[row : row + 2].tolist()
        bounds = self.activity_offsets[lo : hi + 1].tolist()
        activities = self.activities[bounds[0] : bounds[-1]].tolist()
        starts = [bound - bounds[0] for bound in bounds]
        times = [None if t != t else t for t in self.timestamps[lo:hi].tolist()]
        venues = [None if v == NO_VENUE else v for v in self.venues[lo:hi].tolist()]
        return [
            (x, y, activities[a:b], t, v)
            for (x, y), a, b, t, v in zip(self.xy[lo:hi].tolist(), starts, starts[1:], times, venues)
        ]


class ActivityTrajectory:
    """One row of a :class:`TrajectoryColumns`, as a record.

    ``ActivityTrajectory(trajectory_id, points)`` converts *points* into a
    one-row image of its own (the form tests and inserts hand over);
    :meth:`view` addresses a row of an existing image without copying.
    Either way everything is read from the columns on access.

    Positions are 0-based everywhere in the code base.  (The paper writes
    ``Tr[i, j]`` 1-based; tests that mirror paper examples translate.)
    """

    __slots__ = ("trajectory_id", "columns", "row")

    def __init__(self, trajectory_id: int, points: Sequence[TrajectoryPoint]) -> None:
        if not points:
            raise ValueError("a trajectory must contain at least one point")
        records = [(p.x, p.y, p.activities, p.timestamp, p.venue_id) for p in points]
        self.trajectory_id, self.row = trajectory_id, 0
        self.columns = TrajectoryColumns.from_points([trajectory_id], [records])

    @classmethod
    def view(cls, columns: TrajectoryColumns, row: int, trajectory_id: int) -> "ActivityTrajectory":
        """The record of *row* of *columns* (whose id is *trajectory_id*)."""
        view = cls.__new__(cls)
        view.trajectory_id, view.columns, view.row = trajectory_id, columns, row
        return view

    @property
    def points(self) -> Tuple[TrajectoryPoint, ...]:
        """The points, built on each access."""
        return tuple(
            TrajectoryPoint(x, y, frozenset(activities), t, v)
            for x, y, activities, t, v in self.columns.point_records(self.row)
        )

    def __len__(self) -> int:
        return len(self.coord_array())

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self.points[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActivityTrajectory(id={self.trajectory_id}, n={len(self)})"

    @property
    def activity_union(self) -> FrozenSet[int]:
        """Union of the activity sets of all points: the row's slice of the
        activity column, as a set."""
        columns = self.columns
        lo, hi = columns.point_offsets[self.row : self.row + 2]
        bounds = columns.activity_offsets
        return frozenset(columns.activities[bounds[lo] : bounds[hi]].tolist())

    @property
    def posting_lists(self) -> Dict[int, Tuple[int, ...]]:
        """activity ID -> ascending positions of the points that contain it.

        This is the in-memory image of the paper's Activity Posting List
        (APL).  The storage-backed APL component of the GAT index holds
        exactly this mapping, as arrays, and charges its reads as the
        pickled mapping's size.
        """
        lists: Dict[int, List[int]] = {}
        for pos, record in enumerate(self.columns.point_records(self.row)):
            for activity in record[2]:
                lists.setdefault(activity, []).append(pos)
        return {a: tuple(ps) for a, ps in lists.items()}

    def coord_array(self) -> np.ndarray:
        """The ``(n, 2)`` float64 coordinates: a read-only slice of ``xy``."""
        lo, hi = self.columns.point_offsets[self.row : self.row + 2]
        return self.columns.xy[lo:hi]
