"""ITL — Inverted Trajectory List (Section IV, component ii).

"In each cell of the d-Grid, we build an inverted trajectory list for each
activity α existing in this cell, which is a list of trajectory IDs whose
segment contains α within this cell."

The ITL answers the leaf step of candidate retrieval: once best-first
search reaches a leaf cell for query point ``q``, the ITL yields the
trajectories that perform one of ``q.Φ``'s activities *inside that cell*.
It stays in main memory ("ITL can be accommodated within the main memory of
a mainstream server in most cases").

A list is an ascending run of APL **rows** (:mod:`repro.index.gat.apl`), not
trajectory ids: a harvest feeds validation as it comes.  All lists are one
CSR image (:attr:`ITL.arrays`): sorted ``int64`` keys ``(leaf code << 32) |
activity``, offsets, and the rows behind them — what the C walk harvests
from (``repro/native/gat.c``).  An insert publishes a new image by
replacement, so a query keeps the arrays it started with.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple

import numpy as np

from repro.index.gat.apl import ACTIVITY_BITS


class ITLArrays(NamedTuple):
    keys: np.ndarray  #: ``(L,)`` sorted ``(code << ACTIVITY_BITS) | activity``
    offsets: np.ndarray  #: ``(L+1,)`` key k owns ``rows[offsets[k]:offsets[k+1]]``
    rows: np.ndarray  #: ascending within a key
    n_rows: int  #: one past the largest row posted


class ITL:
    """``(leaf code << ACTIVITY_BITS) | activity`` -> ascending APL rows."""

    __slots__ = ("arrays",)

    def __init__(self, arrays: ITLArrays) -> None:
        self.arrays = arrays

    @classmethod
    def build(cls, codes, activities, starts, rows) -> "ITL":
        """The lists of a database, as
        :meth:`~repro.index.gat.apl.APLArrays.leaf_lists` groups them (its
        lexicographic (code, activity) order is the keys' order)."""
        return cls(
            ITLArrays(
                (codes << ACTIVITY_BITS) | activities,
                np.append(starts, len(rows)),
                rows,
                int(rows.max(initial=-1)) + 1,
            )
        )

    def __len__(self) -> int:
        return len(self.arrays.keys)

    def rows_with(self, code: int, activity: int) -> Tuple[int, ...]:
        """Rows carrying *activity* inside leaf cell *code*, ascending."""
        keys, offsets, rows, _n = self.arrays
        key = (code << ACTIVITY_BITS) | activity
        at = int(np.searchsorted(keys, key))
        if at == len(keys) or keys[at] != key:
            return ()
        return tuple(rows[offsets[at] : offsets[at + 1]].tolist())

    def add_row(self, postings: Iterable[Tuple[int, int]], row: int) -> None:
        """Post *row* under every ``(leaf code, activity)`` of *postings*
        (repeats post once) and publish the new arrays.  Dynamic insertion
        only posts the newest — largest — row, so appending it to a list
        keeps the list ascending."""
        keys, offsets, rows, n_rows = self.arrays
        new = np.unique(
            np.array([(c << ACTIVITY_BITS) | a for c, a in postings], dtype=np.int64)
        )
        if not len(new):
            return
        at = np.searchsorted(keys, new)
        present = keys[np.minimum(at, len(keys) - 1)] == new if len(keys) else at < 0
        counts = np.diff(offsets)
        counts[at[present]] += 1
        counts = np.insert(counts, at[~present], 1)
        self.arrays = ITLArrays(
            np.insert(keys, at[~present], new[~present]),
            np.concatenate(([0], counts.cumsum())),
            np.insert(rows, offsets[at + present], row),
            max(n_rows, row + 1),
        )

    def memory_cost_bytes(self) -> int:
        """8 bytes per posted entry plus 16 per list — the ITL share of
        Figure 8's memory series."""
        return 8 * len(self.arrays.rows) + 16 * len(self.arrays.keys)
