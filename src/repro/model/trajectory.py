"""Activity trajectory: an ordered sequence of trajectory points.

Definition 2: ``Tr = (p1, p2, ..., pn)`` where each ``p_i`` is a geo-point
with an attached activity set.  A trajectory also exposes the derived
structures the indexes need:

* ``activity_union`` — the union of all point activity sets (what the IL
  baseline and the TAS sketch summarise);
* ``posting_lists`` — for each activity, the positions of the points that
  contain it (the on-disk Activity Posting List of Section IV is the
  per-trajectory persisted form of this).

This object model is the oracle's image of the data: the scalar kernel and
the RT / IRT baselines score from it, one trajectory at a time.  The GAT
engine's round-batched path reads the same facts as arrays — the APL row
store (:mod:`repro.index.gat.apl`) is built from ``posting_lists`` and the
point coordinates once, at index build and on insert.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.model.point import TrajectoryPoint


class ActivityTrajectory:
    """An immutable activity trajectory with a database-unique ID.

    Positions are 0-based everywhere in the code base.  (The paper writes
    ``Tr[i, j]`` 1-based; tests that mirror paper examples translate.)
    """

    __slots__ = (
        "trajectory_id",
        "points",
        "_activity_union",
        "_posting_lists",
        "_coord_array",
    )

    def __init__(self, trajectory_id: int, points: Sequence[TrajectoryPoint]) -> None:
        if not points:
            raise ValueError("a trajectory must contain at least one point")
        self.trajectory_id = trajectory_id
        self.points: Tuple[TrajectoryPoint, ...] = tuple(points)
        self._activity_union: FrozenSet[int] | None = None
        self._posting_lists: Dict[int, Tuple[int, ...]] | None = None
        self._coord_array = None

    # ------------------------------------------------------------------
    # Basic sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self.points[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActivityTrajectory(id={self.trajectory_id}, n={len(self)})"

    # ------------------------------------------------------------------
    # Derived activity structures (computed lazily, cached)
    # ------------------------------------------------------------------
    @property
    def activity_union(self) -> FrozenSet[int]:
        """Union of the activity sets of all points."""
        if self._activity_union is None:
            union: set[int] = set()
            for point in self.points:
                union |= point.activities
            self._activity_union = frozenset(union)
        return self._activity_union

    @property
    def posting_lists(self) -> Dict[int, Tuple[int, ...]]:
        """activity ID -> ascending positions of the points that contain it.

        This is the in-memory image of the paper's Activity Posting List
        (APL).  The storage-backed APL component of the GAT index holds
        exactly this mapping, as arrays, and charges its reads as the
        pickled mapping's size.
        """
        if self._posting_lists is None:
            lists: Dict[int, List[int]] = {}
            for pos, point in enumerate(self.points):
                for activity in point.activities:
                    lists.setdefault(activity, []).append(pos)
            self._posting_lists = {a: tuple(ps) for a, ps in lists.items()}
        return self._posting_lists

    def coord_array(self):
        """Cached ``(n, 2)`` float64 coordinate matrix (requires NumPy).

        Built lazily by the per-candidate array kernels; like the other
        derived structures it treats the trajectory as immutable, and a
        benign double-compute is the worst a concurrent first access can
        do.
        """
        if self._coord_array is None:
            import numpy as np

            self._coord_array = np.array(
                [(p.x, p.y) for p in self.points], dtype=float
            )
        return self._coord_array

    def positions_of(self, activity: int) -> Tuple[int, ...]:
        """Positions of the points containing *activity* (possibly empty)."""
        return self.posting_lists.get(activity, ())

    def contains_all(self, activities: Iterable[int]) -> bool:
        """True when every activity in *activities* occurs somewhere."""
        union = self.activity_union
        return all(a in union for a in activities)

    def sub(self, start: int, stop: int) -> Tuple[TrajectoryPoint, ...]:
        """Points of the sub-trajectory ``Tr[start, stop]`` — both ends
        inclusive, 0-based (paper notation ``Tr[i, j]`` is 1-based)."""
        if start < 0 or stop >= len(self.points) or start > stop:
            raise IndexError(f"invalid sub-trajectory [{start}, {stop}]")
        return self.points[start : stop + 1]

    def n_checkins(self) -> int:
        """Total number of activity occurrences (Table IV's '#activity')."""
        return sum(len(p.activities) for p in self.points)
