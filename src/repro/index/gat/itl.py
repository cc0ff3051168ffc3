"""ITL — Inverted Trajectory List (Section IV, component ii).

"In each cell of the d-Grid, we build an inverted trajectory list for each
activity α existing in this cell, which is a list of trajectory IDs whose
segment contains α within this cell."

The ITL answers the leaf step of candidate retrieval: once best-first
search reaches a leaf cell for query point ``q``, the ITL yields the
trajectories that perform one of ``q.Φ``'s activities *inside that cell*.
It stays in main memory ("ITL can be accommodated within the main memory of
a mainstream server in most cases").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.geometry.grid import HierarchicalGrid
from repro.model.database import TrajectoryDatabase


class ITL:
    """Leaf-cell activity -> trajectory-ID inverted lists."""

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        # cell code -> {activity -> sorted tuple of trajectory IDs}
        self._cells: Dict[int, Dict[int, Tuple[int, ...]]] = {}

    @classmethod
    def build(cls, db: TrajectoryDatabase, grid: HierarchicalGrid) -> "ITL":
        itl = cls()
        leaf = grid.leaf_level
        accum: Dict[int, Dict[int, Set[int]]] = {}
        for trajectory in db:
            tid = trajectory.trajectory_id
            for point in trajectory:
                if not point.activities:
                    continue
                code = leaf.locate(point.coord)
                cell_lists = accum.setdefault(code, {})
                for activity in point.activities:
                    cell_lists.setdefault(activity, set()).add(tid)
        itl._cells = {
            code: {a: tuple(sorted(tids)) for a, tids in lists.items()}
            for code, lists in accum.items()
        }
        return itl

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def trajectories_with(self, code: int, activity: int) -> Tuple[int, ...]:
        """Trajectory IDs carrying *activity* inside leaf cell *code*."""
        return self._cells.get(code, {}).get(activity, ())

    def trajectories_with_any(self, code: int, activities: Iterable[int]) -> Set[int]:
        """Union over *activities* of the cell's inverted lists."""
        out: Set[int] = set()
        lists = self._cells.get(code)
        if not lists:
            return out
        for activity in activities:
            tids = lists.get(activity)
            if tids:
                out.update(tids)
        return out

    def activities_in(self, code: int) -> FrozenSet[int]:
        """All activities present in leaf cell *code* (``c.Φ``)."""
        return frozenset(self._cells.get(code, {}))

    def has_cell(self, code: int) -> bool:
        return code in self._cells

    def n_cells(self) -> int:
        return len(self._cells)

    def add_posting(self, code: int, activity: int, trajectory_id: int) -> None:
        """Register *trajectory_id* under (cell, activity); keeps the list
        sorted.  Extension for dynamic insertion."""
        lists = self._cells.setdefault(code, {})
        existing = lists.get(activity, ())
        if trajectory_id not in existing:
            lists[activity] = tuple(sorted((*existing, trajectory_id)))

    def memory_cost_bytes(self) -> int:
        """8 bytes per posted trajectory ID plus 16 per list — the ITL share
        of Figure 8's memory series."""
        total = 0
        for lists in self._cells.values():
            for tids in lists.values():
                total += 8 * len(tids) + 16
        return total
