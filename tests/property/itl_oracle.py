"""The ITL as it was before it held APL rows — kept as the oracle
``test_itl_rows.py`` compares :class:`repro.index.gat.itl.ITL` against, list
for list, and that :class:`frozenset_hicl_oracle.OracleRetriever` harvests
leaves from.

What lives here and nowhere in ``src/`` any more:

* the per-point build (one ``leaf.locate`` per point, a Python ``set`` per
  list), keyed by **trajectory id**;
* ``trajectories_with_any``, the per-leaf union the retriever then walked
  id by id against its seen-set — in CPython's iteration order over a
  ``set`` of ints, which is why the production order had to be *defined*
  (ascending row within a leaf pop) when the walk went.
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
