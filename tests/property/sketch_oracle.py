"""The one-trajectory TAS reference: the paper's interval construction for
one sorted id list, and a sketch object answering its superset test.

:class:`repro.index.gat.tas.SketchTable` builds every row's intervals at
once with array work (``row_intervals``) and tests a round's rows in C;
the suites check both against this reference, and the object-chain oracle
filters through it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


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
