"""ITL — Inverted Trajectory List (Section IV, component ii).

"In each cell of the d-Grid, we build an inverted trajectory list for each
activity α existing in this cell, which is a list of trajectory IDs whose
segment contains α within this cell."

The ITL answers the leaf step of candidate retrieval: once best-first
search reaches a leaf cell for query point ``q``, the ITL yields the
trajectories that perform one of ``q.Φ``'s activities *inside that cell*.
It stays in main memory ("ITL can be accommodated within the main memory of
a mainstream server in most cases").

A list is one ascending tuple of APL **rows** (:mod:`repro.index.gat.apl`),
not trajectory ids: a harvest feeds validation as it comes.  Arrays build the
lists; the harvest stays on tuples and sets (per-leaf NumPy calls lose).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.index.gat.apl import ACTIVITY_BITS


class ITL:
    """``(leaf code << ACTIVITY_BITS) | activity`` -> ascending tuple of APL rows."""

    __slots__ = ("_lists",)

    def __init__(self) -> None:
        self._lists: Dict[int, Tuple[int, ...]] = {}

    @classmethod
    def build(cls, codes, activities, starts, rows) -> "ITL":
        """The lists of a database, as
        :meth:`~repro.index.gat.apl.APLArrays.leaf_lists` groups them."""
        itl = cls()
        bounds = starts.tolist() + [len(rows)]
        # One int object per row, shared by every list that posts it.
        flat = np.arange(rows.max(initial=-1) + 1).astype(object)[rows].tolist()
        keys = zip(codes.tolist(), activities.tolist(), bounds, bounds[1:])
        itl._lists = {(c << ACTIVITY_BITS) | a: tuple(flat[lo:hi]) for c, a, lo, hi in keys}
        return itl

    def rows_with(self, code: int, activity: int) -> Tuple[int, ...]:
        """Rows carrying *activity* inside leaf cell *code*, ascending."""
        return self._lists.get((code << ACTIVITY_BITS) | activity, ())

    def add_posting(self, code: int, activity: int, row: int) -> None:
        """Register *row* under (cell, activity).  Dynamic insertion only
        posts the newest — largest — row, so appending keeps the list
        ascending; a trajectory's second point there posts nothing."""
        existing = self.rows_with(code, activity)
        if not existing or existing[-1] != row:
            self._lists[(code << ACTIVITY_BITS) | activity] = (*existing, row)

    def memory_cost_bytes(self) -> int:
        """8 bytes per posted entry plus 16 per list — the ITL share of
        Figure 8's memory series."""
        return sum(8 * len(rows) + 16 for rows in self._lists.values())
