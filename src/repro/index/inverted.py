"""Trajectory-level inverted activity lists — the IL baseline's index
(Section III-A).

"It aggregates the activities associated with each point in a trajectory,
and then builds an inverted list for each activity."  Query processing
filters to the trajectories containing *all* query activities (an
intersection of posting lists) and scores every survivor.

The set operations are the IL baseline's whole retrieval cost (its
posting lists cover sizeable shares of the database for the head
activities the workloads query), so both combinators run over cached
sorted int64 arrays — ``np.intersect1d`` / ``np.union1d`` on
``assume_unique`` inputs — with the original set algebra kept for short
lists, where fixed NumPy call overhead loses to the C-level set
operations.
Results are identical: both compute exact set intersection/union.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as _np

from repro.model.database import TrajectoryDatabase

#: Below this combined size the scalar set path wins on call overhead.
MIN_BATCH = 64


class InvertedIndex:
    """activity ID -> sorted trajectory IDs whose activity union contains it."""

    __slots__ = ("_lists", "_arrays")

    def __init__(self) -> None:
        self._lists: Dict[int, Tuple[int, ...]] = {}
        self._arrays: Dict[int, object] = {}

    @classmethod
    def build(cls, db: TrajectoryDatabase) -> "InvertedIndex":
        index = cls()
        accum: Dict[int, List[int]] = {}
        for trajectory in db:  # trajectories arrive in ascending-ID order
            tid = trajectory.trajectory_id
            for activity in trajectory.activity_union:
                accum.setdefault(activity, []).append(tid)
        index._lists = {a: tuple(sorted(tids)) for a, tids in accum.items()}
        index._arrays = {
            a: _np.asarray(tids, dtype=_np.int64) for a, tids in index._lists.items()
        }
        return index

    def posting(self, activity: int) -> Tuple[int, ...]:
        """Trajectory IDs containing *activity* anywhere."""
        return self._lists.get(activity, ())

    def _posting_arrays(self, activities: Iterable[int]):
        """The distinct activities' posting arrays, or ``None`` when the
        NumPy path should not run (an empty posting — the scalar paths
        short-circuit those — or inputs too small to beat the per-call
        overhead)."""
        arrays = []
        total = 0
        for activity in dict.fromkeys(activities):
            arr = self._arrays.get(activity)
            if arr is None:
                return None
            arrays.append(arr)
            total += len(arr)
        if total < MIN_BATCH:
            return None
        return arrays

    def trajectories_with_all(self, activities: Iterable[int]) -> Set[int]:
        """Intersection of posting lists: the IL candidate set for a query
        whose union activity set is *activities*.  Intersects smallest-first
        so the working set shrinks as fast as possible."""
        activities = list(activities)
        arrays = self._posting_arrays(activities)
        if arrays:
            arrays.sort(key=len)
            result = arrays[0]
            for arr in arrays[1:]:
                if not len(result):
                    break
                result = _np.intersect1d(result, arr, assume_unique=True)
            return set(result.tolist())
        postings = [self.posting(a) for a in activities]
        if not postings:
            return set()
        postings.sort(key=len)
        if not postings[0]:
            return set()
        result = set(postings[0])
        for p in postings[1:]:
            result.intersection_update(p)
            if not result:
                break
        return result

    def trajectories_with_any(self, activities: Iterable[int]) -> Set[int]:
        """Union of posting lists."""
        activities = list(activities)
        arrays = self._posting_arrays(activities)
        if arrays:
            if len(arrays) == 1:
                return set(arrays[0].tolist())
            return set(_np.unique(_np.concatenate(arrays)).tolist())
        out: Set[int] = set()
        for activity in activities:
            out.update(self.posting(activity))
        return out

    def n_activities(self) -> int:
        return len(self._lists)

    def memory_cost_bytes(self) -> int:
        return sum(8 * len(tids) + 16 for tids in self._lists.values())
