"""Activity trajectory: an ordered sequence of trajectory points.

Definition 2: ``Tr = (p1, p2, ..., pn)`` where each ``p_i`` is a geo-point
with an attached activity set.  A trajectory also exposes the derived
structures the indexes need:

* ``activity_union`` — the union of all point activity sets (what the IL
  baseline and the TAS sketch summarise);
* ``posting_lists`` — for each activity, the positions of the points that
  contain it (the on-disk Activity Posting List of Section IV is the
  per-trajectory persisted form of this).

Two construction paths share this class: the classic object path
(``__init__`` with a point sequence) and the **array-backed** path
(:meth:`ActivityTrajectory.from_arrays`), where the trajectory holds
zero-copy views into a columnar image (:mod:`repro.model.columnar`; it
has no production caller today — that module says why it stays) and
materialises :class:`TrajectoryPoint` objects only when someone iterates
them.  Both paths expose equal derived structures — same points, same
posting positions, same unions — so rankings and work counters cannot
tell them apart.  (Dict/set *iteration order* is not part of that
contract and nothing downstream depends on it; see
:mod:`repro.model.columnar`.)
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
        "_points",
        "_activity_union",
        "_posting_lists",
        "_coord_array",
        "_activity_columns",
        "_acts",
        "_act_off",
        "_timestamps",
        "_venues",
    )

    def __init__(self, trajectory_id: int, points: Sequence[TrajectoryPoint]) -> None:
        if not points:
            raise ValueError("a trajectory must contain at least one point")
        self.trajectory_id = trajectory_id
        self._points: Tuple[TrajectoryPoint, ...] | None = tuple(points)
        self._activity_union: FrozenSet[int] | None = None
        self._posting_lists: Dict[int, Tuple[int, ...]] | None = None
        self._coord_array = None
        self._activity_columns = None
        self._acts = None
        self._act_off = None
        self._timestamps = None
        self._venues = None

    @classmethod
    def from_arrays(
        cls,
        trajectory_id: int,
        coords,
        act_values,
        act_offsets,
        timestamps=None,
        venues=None,
    ) -> "ActivityTrajectory":
        """Array-backed construction over columnar views (zero-copy).

        Parameters
        ----------
        coords:
            ``(n, 2)`` float64 view — becomes :meth:`coord_array` as-is.
        act_values / act_offsets:
            The image's *global* activity column plus this trajectory's
            ``(n+1,)`` slice of absolute offsets into it: point ``i``
            performed ``act_values[act_offsets[i]:act_offsets[i+1]]``,
            in the original frozenset iteration order (see
            :mod:`repro.model.columnar`).
        timestamps / venues:
            Optional ``(n,)`` views; NaN / -1 decode to ``None``.

        Points, posting structures, and the activity union materialise
        lazily on first access; the coordinate matrix is the passed view
        itself, so the array scoring kernels read the image's columns
        directly.
        """
        n = len(coords)
        if n == 0:
            raise ValueError("a trajectory must contain at least one point")
        if len(act_offsets) != n + 1:
            raise ValueError("act_offsets must have one entry per point plus one")
        self = object.__new__(cls)
        self.trajectory_id = trajectory_id
        self._points = None
        self._activity_union = None
        self._posting_lists = None
        self._coord_array = coords
        self._activity_columns = None
        self._acts = act_values
        self._act_off = act_offsets
        self._timestamps = timestamps
        self._venues = venues
        return self

    # ------------------------------------------------------------------
    # Point materialisation (array-backed path)
    # ------------------------------------------------------------------
    @property
    def points(self) -> Tuple[TrajectoryPoint, ...]:
        """The point tuple; array-backed trajectories build it on first
        access (and cache it — immutability makes a benign concurrent
        double-build the worst case, like the other derived structures)."""
        if self._points is None:
            self._points = self._materialize_points()
        return self._points

    def _materialize_points(self) -> Tuple[TrajectoryPoint, ...]:
        coords = self._coord_array
        base = int(self._act_off[0])
        offsets = [int(o) - base for o in self._act_off.tolist()]
        acts = self._acts[base : base + offsets[-1]].tolist()
        ts = self._timestamps.tolist() if self._timestamps is not None else None
        vn = self._venues.tolist() if self._venues is not None else None
        points = []
        for i, (x, y) in enumerate(coords.tolist()):
            timestamp = None
            if ts is not None and ts[i] == ts[i]:  # NaN encodes None
                timestamp = ts[i]
            venue = None
            if vn is not None and vn[i] >= 0:  # -1 encodes None
                venue = vn[i]
            points.append(
                TrajectoryPoint(
                    x,
                    y,
                    frozenset(acts[offsets[i] : offsets[i + 1]]),
                    timestamp=timestamp,
                    venue_id=venue,
                )
            )
        return tuple(points)

    # ------------------------------------------------------------------
    # Basic sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._points is not None:
            return len(self._points)
        return len(self._coord_array)

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
            if self._points is None:
                lo, hi = int(self._act_off[0]), int(self._act_off[-1])
                self._activity_union = frozenset(self._acts[lo:hi].tolist())
            else:
                union: set[int] = set()
                for point in self._points:
                    union |= point.activities
                self._activity_union = frozenset(union)
        return self._activity_union

    @property
    def posting_lists(self) -> Dict[int, Tuple[int, ...]]:
        """activity ID -> ascending positions of the points that contain it.

        This is the in-memory image of the paper's Activity Posting List
        (APL).  The storage-backed APL component of the GAT index serialises
        exactly this mapping.
        """
        if self._posting_lists is None:
            lists: Dict[int, List[int]] = {}
            if self._points is None:
                # Array-backed: walk the stored postings directly instead
                # of materialising points.  Key order may differ from the
                # object path's, which is fine — posting lists are read
                # by key, and the APL's pickled size is order-independent.
                base = int(self._act_off[0])
                offsets = [int(o) - base for o in self._act_off.tolist()]
                acts = self._acts[base : base + offsets[-1]].tolist()
                for pos in range(len(offsets) - 1):
                    for activity in acts[offsets[pos] : offsets[pos + 1]]:
                        lists.setdefault(activity, []).append(pos)
            else:
                for pos, point in enumerate(self._points):
                    for activity in point.activities:
                        lists.setdefault(activity, []).append(pos)
            self._posting_lists = {a: tuple(ps) for a, ps in lists.items()}
        return self._posting_lists

    def coord_array(self):
        """Cached ``(n, 2)`` float64 coordinate matrix (requires NumPy).

        Built lazily by the array scoring kernels; like the other
        derived structures it treats the trajectory as immutable, and a
        benign double-compute is the worst a concurrent first access can
        do.  Array-backed trajectories return their columnar view
        directly.
        """
        if self._coord_array is None:
            import numpy as np

            self._coord_array = np.array(
                [(p.x, p.y) for p in self.points], dtype=float
            )
        return self._coord_array

    def activity_columns(self):
        """The point-major activity columns ``(act_values, acts_per_point)``
        as int64 NumPy arrays (requires NumPy): point ``i`` performed the
        next ``acts_per_point[i]`` entries of ``act_values``.

        The array image of the activity data — :attr:`posting_lists` is
        the dict image — and what the block scoring kernel concatenates
        per validation round (:func:`repro.core.kernels.prepare_block`,
        :func:`~repro.core.kernels.block_dmm_all_single`).  Array-backed
        trajectories return a zero-copy slice of the image's
        ``act_values`` column plus the differences of their offsets;
        object-backed ones flatten their points once.
        """
        if self._activity_columns is None:
            import numpy as np

            if self._points is None:
                lo, hi = int(self._act_off[0]), int(self._act_off[-1])
                self._activity_columns = (self._acts[lo:hi], np.diff(self._act_off))
            else:
                self._activity_columns = (
                    np.array(
                        [a for p in self._points for a in p.activities], dtype=np.int64
                    ),
                    np.array([len(p.activities) for p in self._points], dtype=np.int64),
                )
        return self._activity_columns

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
        if self._points is None:
            return int(self._act_off[-1] - self._act_off[0])
        return sum(len(p.activities) for p in self._points)
