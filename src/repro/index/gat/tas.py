"""TAS — Trajectory Activity Sketch (Section IV, component iii).

A per-trajectory, in-memory summary of the trajectory's activity set as
``M`` integer intervals over the (frequency-ordered) activity IDs.  The
sketch supports a superset test with *no false dismissals*: if an activity
ID falls outside every interval, the trajectory certainly does not contain
it; if it falls inside, the trajectory *may* contain it (false positives
are later removed by the APL check).

Interval construction (paper): sort the trajectory's activity IDs, compute
consecutive gaps, and split at the ``M - 1`` largest gaps.  That choice
minimises the total interval span — "relocating any split point (with gap
g) to other places (with gap g') will result in increase by g - g' on the
overall size of the intervals" — and is verified against brute force in the
test suite.

Each interval costs two integers, so the paper prices the whole structure
at ``8 * M * N`` bytes for N trajectories; :func:`sketch_memory_bytes`
reproduces that accounting.

The index holds all sketches as one ``[N, M, 2]`` array in APL row order
(:class:`SketchTable`), so a validation round's superset test is one
broadcast comparison; :class:`TrajectorySketch` is the one-trajectory view.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.index.gat.apl import ACTIVITY_BITS, ACTIVITY_MASK, APLStore


def optimal_intervals(sorted_ids: Sequence[int], m: int) -> Tuple[Tuple[int, int], ...]:
    """Partition ascending *sorted_ids* into at most *m* intervals with
    minimum total span, by splitting at the ``m - 1`` largest gaps.

    Returns ``((lo, hi), ...)`` intervals in ascending order.  Fewer than
    *m* intervals come back when there are fewer than *m* distinct IDs.
    """
    if m <= 0:
        raise ValueError("the number of intervals must be positive")
    ids = list(dict.fromkeys(sorted_ids))  # dedupe, keep sorted order
    if not ids:
        return ()
    if any(ids[i] > ids[i + 1] for i in range(len(ids) - 1)):
        raise ValueError("activity IDs must be sorted ascending")
    if len(ids) <= m:
        return tuple((v, v) for v in ids)

    # Gaps between consecutive IDs; split at the m-1 largest.
    gaps = [(ids[i + 1] - ids[i], i) for i in range(len(ids) - 1)]
    gaps.sort(key=lambda g: (-g[0], g[1]))
    split_after = sorted(i for _gap, i in gaps[: m - 1])

    intervals: List[Tuple[int, int]] = []
    start = 0
    for cut in split_after:
        intervals.append((ids[start], ids[cut]))
        start = cut + 1
    intervals.append((ids[start], ids[-1]))
    return tuple(intervals)


class TrajectorySketch:
    """The interval sketch of one trajectory."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Tuple[Tuple[int, int], ...]) -> None:
        self.intervals = intervals

    @classmethod
    def from_activities(cls, activities: Iterable[int], m: int) -> "TrajectorySketch":
        return cls(optimal_intervals(sorted(activities), m))

    def covers(self, activity_id: int) -> bool:
        """Is *activity_id* inside some interval?  (May be a false positive.)"""
        for lo, hi in self.intervals:
            if lo <= activity_id <= hi:
                return True
            if activity_id < lo:
                return False  # intervals are ascending and disjoint
        return False

    def covers_all(self, activity_ids: Iterable[int]) -> bool:
        """Superset test for the whole query activity set ``Q.Φ`` — the
        candidate-validation filter of Section V-C."""
        return all(self.covers(a) for a in activity_ids)

    def total_span(self) -> int:
        """``sum |I_a|`` — the objective the split placement minimises."""
        return sum(hi - lo for lo, hi in self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TrajectorySketch(" + " ".join(f"[{lo},{hi}]" for lo, hi in self.intervals) + ")"


def row_intervals(keys, first_row: int, n_rows: int, m: int):
    """:func:`optimal_intervals` for rows ``first_row … first_row + n_rows``
    of an APL image at once, as an ``[n_rows, m, 2]`` array: a row's
    distinct activity ids are already ascending in the image's sorted
    ``(row << 32) | activity`` *keys*.  Rows with fewer than *m* intervals
    are padded with the empty interval ``(1, 0)``."""
    out = np.empty((n_rows, m, 2), dtype=np.int64)
    out[:, :, 0] = 1
    out[:, :, 1] = 0
    keys = keys[np.searchsorted(keys, first_row << ACTIVITY_BITS) : -1]  # minus the sentinel
    if not len(keys):
        return out
    rows = (keys >> ACTIVITY_BITS) - first_row
    ids = keys & ACTIVITY_MASK
    closes = np.ones(len(keys), dtype=bool)  # an interval ends at a row's last id …
    closes[:-1] = rows[1:] != rows[:-1]
    # … and after each of the row's m-1 largest gaps (earliest first on ties).
    gap_at = np.flatnonzero(~closes)
    gap_row = rows[gap_at]
    ranked = gap_at[np.lexsort((gap_at, ids[gap_at] - ids[gap_at + 1], gap_row))]
    per_row = np.bincount(gap_row, minlength=n_rows)
    rank = np.arange(len(ranked)) - np.repeat(per_row.cumsum() - per_row, per_row)
    closes[ranked[rank < m - 1]] = True
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = closes[:-1]
    opens = np.flatnonzero(opens)
    interval_row = rows[opens]
    per_row = np.bincount(interval_row, minlength=n_rows)
    nth = np.arange(len(opens)) - np.repeat(per_row.cumsum() - per_row, per_row)
    out[interval_row, nth, 0] = ids[opens]
    out[interval_row, nth, 1] = ids[closes]
    return out


class SketchTable:
    """Every trajectory's sketch, one ``[N, M, 2]`` interval array in the
    row order of the :class:`~repro.index.gat.apl.APLStore` it summarises."""

    __slots__ = ("apl", "m", "intervals")

    def __init__(self, apl: APLStore, m: int) -> None:
        if m <= 0:
            raise ValueError("the number of intervals must be positive")
        self.apl = apl
        self.m = m
        self.intervals = np.empty((0, m, 2), dtype=np.int64)
        self.extend()

    def extend(self) -> None:
        """Sketch the rows the store has gained (built aside, then
        published with one assignment)."""
        first_row = len(self.intervals)
        n_rows = len(self.apl) - first_row
        if n_rows:
            fresh = row_intervals(self.apl.image.keys, first_row, n_rows, self.m)
            self.intervals = np.concatenate([self.intervals, fresh])

    def covers_all(self, rows, activities):
        """Per row of *rows*, the superset test for *activities* (an
        ``int64`` array): every id inside one of the row's intervals."""
        intervals = self.intervals[rows]
        inside = (intervals[:, :, 0, None] <= activities) & (
            activities <= intervals[:, :, 1, None]
        )
        return inside.any(axis=1).all(axis=1)

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, trajectory_id: int) -> TrajectorySketch:
        intervals = self.intervals[self.apl.row_of(trajectory_id)].tolist()
        return TrajectorySketch(tuple((lo, hi) for lo, hi in intervals if lo <= hi))


def sketch_memory_bytes(n_trajectories: int, m: int) -> int:
    """The paper's cost model: each interval keeps two integers (8 bytes),
    so N trajectories cost ``8 * M * N`` bytes."""
    return 8 * m * n_trajectories
