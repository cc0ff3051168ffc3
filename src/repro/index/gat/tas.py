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
test suite, through the one-trajectory reference sketch kept there
(``tests/property/sketch_oracle.py``).

Each interval costs two integers, so the paper prices the whole structure
at ``8 * M * N`` bytes for N trajectories; :func:`sketch_memory_bytes`
reproduces that accounting.

The index holds all sketches as one ``[N, M, 2]`` array in APL row order
(:class:`SketchTable`), so a validation round's superset test is one C
pass over the round's rows of it (``gat_round_tas`` in
``repro/native/gat.c``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.index.gat.apl import ACTIVITY_BITS, ACTIVITY_MASK, APLStore
from repro.native import c_array, lib


def row_intervals(keys, first_row: int, n_rows: int, m: int):
    """The paper's optimal intervals (at most *m*, split at the ``m - 1``
    largest gaps, earliest first on ties) for rows ``first_row …
    first_row + n_rows`` of an APL image at once, as an ``[n_rows, m, 2]``
    array: a row's
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

    __slots__ = ("apl", "m", "intervals", "_c_intervals")

    def __init__(self, apl: APLStore, m: int) -> None:
        if m <= 0:
            raise ValueError("the number of intervals must be positive")
        self.apl = apl
        self.m = m
        self.intervals = np.empty((0, m, 2), dtype=np.int64)
        self.extend()

    def extend(self) -> None:
        """Sketch the rows the store has gained (built aside, then
        published with one assignment, with the pointer the C test
        reads)."""
        first_row = len(self.intervals)
        fresh = row_intervals(self.apl.image.keys, first_row, len(self.apl) - first_row, self.m)
        intervals = np.concatenate([self.intervals, fresh])
        self.intervals, self._c_intervals = intervals, c_array("int64_t", intervals)

    def covers_all(self, candidates):
        """Per candidate of the round *candidates* (a
        :class:`~repro.index.gat.apl.PostingRound`), the superset test for
        its query's activities: every id inside one of the row's intervals
        (``gat_round_tas``)."""
        out = np.empty(len(candidates), dtype=bool)
        lib.gat_round_tas(
            self._c_intervals, self.m, candidates.query.handle, candidates.c_rows,
            len(candidates), c_array("uint8_t", out, True),
        )
        return out

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, trajectory_id: int) -> Tuple[Tuple[int, int], ...]:
        """The intervals of one trajectory's sketch, ascending."""
        intervals = self.intervals[self.apl.db.row_of(trajectory_id)].tolist()
        return tuple((lo, hi) for lo, hi in intervals if lo <= hi)


def sketch_memory_bytes(n_trajectories: int, m: int) -> int:
    """The paper's cost model: each interval keeps two integers (8 bytes),
    so N trajectories cost ``8 * M * N`` bytes."""
    return 8 * m * n_trajectories
