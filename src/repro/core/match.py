"""Minimum point match distance — Algorithm 3 of the paper (Section V-D).

Given a query point ``q`` with activity set ``q.Φ`` and a candidate
trajectory, the *minimum point match* is the cheapest set of trajectory
points whose activity union covers ``q.Φ``, where the cost of a set is the
sum of its points' distances to ``q`` (Definitions 3-4).  This is a
min-cost set-cover over a tiny universe (``|q.Φ|`` is 1-5 in the paper), so
exponential-in-``|q.Φ|`` state is fine while the number of candidate points
can be large.

The paper's algorithm keeps a hash table ``H`` mapping each *subset of the
query activity set* to the best cover cost found so far, processes candidate
points in ascending distance order, and terminates early as soon as the
full-set entry is at most the distance of the next unprocessed point (any
cover using that point or a farther one costs at least that much on its
own).

Implementation notes
--------------------
* Activity subsets are represented as bitmasks over the query's activities
  (``q.Φ`` is re-indexed to bits 0..n-1).  :meth:`PointMatchTable.snapshot`
  translates back to frozensets so tests can compare against the hash-table
  states printed in the paper's Table II.
* :class:`PointMatchTable` is *incremental*: points may be added in any
  order and ``best()`` is exact after every addition.  Algorithm 4 (the
  order-sensitive DP) exploits this by extending sub-trajectories one point
  at a time — "the evaluation of Dmpm can be done incrementally since only
  one more point is added to Tr[k, j] each time" (Section VI-C).
  Ascending-distance order is *only* needed for the early-termination rule,
  which lives in :func:`minimum_point_match_distance`, not in the table.
* Two brute-force oracles back the property-based tests
  (``tests/property/match_oracles.py``): a textbook increasing-mask
  set-cover DP and an explicit enumeration over point subsets.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.model.distance import DistanceMetric
from repro.model.point import TrajectoryPoint

Coord = Tuple[float, float]

INFINITY = math.inf


class PointMatchTable:
    """The hash table ``H`` of Algorithm 3, with exact incremental updates.

    Parameters
    ----------
    query_activities:
        ``q.Φ`` as an iterable of activity IDs.  Order of iteration fixes
        the bit assignment (only relevant for internals).
    track_matches:
        When true, parent pointers are kept so :meth:`match_positions` can
        reconstruct *which* points realise the minimum point match (used by
        the ``explain=True`` query API and by tests).
    """

    __slots__ = ("_bit_of", "_activity_of_bit", "n_bits", "full_mask", "_h", "_parent")

    def __init__(self, query_activities: Iterable[int], track_matches: bool = False) -> None:
        activities = list(dict.fromkeys(query_activities))
        if not activities:
            raise ValueError("query activity set must be non-empty")
        self._bit_of: Dict[int, int] = {a: i for i, a in enumerate(activities)}
        self._activity_of_bit: List[int] = activities
        self.n_bits = len(activities)
        self.full_mask = (1 << self.n_bits) - 1
        self._h: Dict[int, float] = {}
        # parent[mask] is either ("pt", payload) — mask covered by a single
        # point — or ("combo", s, ks) — mask = s | ks via line 19.
        self._parent: Optional[Dict[int, tuple]] = {} if track_matches else None

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    def overlap_mask(self, activities: FrozenSet[int]) -> int:
        """Bitmask of ``activities ∩ q.Φ`` (``p.Φ'`` in the paper)."""
        bit_of = self._bit_of
        mask = 0
        for a in activities:
            bit = bit_of.get(a)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def mask_to_set(self, mask: int) -> FrozenSet[int]:
        """Translate a bitmask back to the activity-ID subset it denotes."""
        return frozenset(
            self._activity_of_bit[i] for i in range(self.n_bits) if mask & (1 << i)
        )

    # ------------------------------------------------------------------
    # Core update (lines 7-19 of Algorithm 3, for one point)
    # ------------------------------------------------------------------
    def add(self, mask: int, dist: float, payload=None) -> None:
        """Fold one candidate point (overlap *mask*, distance *dist*) in.

        Follows the paper: push ``p.Φ'`` onto a FIFO queue; for every popped
        subset ``ks`` that improves, record it, enqueue its
        ``(|ks|-1)``-sized subsets, and combine it with every other entry of
        ``H`` that is neither a subset nor a superset.
        """
        if mask == 0:
            return
        h = self._h
        parent = self._parent
        queue: deque[int] = deque((mask,))
        while queue:
            ks = queue.popleft()
            if h.get(ks, INFINITY) <= dist:
                # A better (or equal) cover of ks exists; its subsets are
                # at least as good too (paper line 11-12).
                continue
            h[ks] = dist
            if parent is not None:
                parent[ks] = ("pt", payload)
            # Enqueue all subsets of ks with one fewer activity (line 15).
            bits = ks
            while bits:
                low = bits & (-bits)
                sub = ks & ~low
                if sub:
                    queue.append(sub)
                bits &= bits - 1
            # Combine ks with every incomparable existing key (lines 16-19).
            d_ks = h[ks]
            for s, d_s in list(h.items()):
                if (s & ks) == s or (s & ks) == ks:
                    continue  # subset or superset of ks — skip (line 17)
                key = s | ks
                combined = d_s + d_ks
                if combined < h.get(key, INFINITY):
                    h[key] = combined
                    if parent is not None:
                        parent[key] = ("combo", s, ks)

    # ------------------------------------------------------------------
    # Queries on the table
    # ------------------------------------------------------------------
    def best(self) -> float:
        """``H[q.Φ]`` — the minimum point match distance so far (inf if the
        points added so far cannot cover the query activities)."""
        return self._h.get(self.full_mask, INFINITY)

    def snapshot(self) -> Dict[FrozenSet[int], float]:
        """Current ``H`` keyed by activity-ID subsets (Table II's notation)."""
        return {self.mask_to_set(mask): dist for mask, dist in self._h.items()}

    def match_positions(self) -> Tuple:
        """Payloads of the points realising ``best()``.

        Requires ``track_matches=True``.  Payloads are deduplicated, so the
        result is the *set* of points of the minimum point match.
        """
        if self._parent is None:
            raise RuntimeError("construct the table with track_matches=True")
        if self.full_mask not in self._h:
            return ()
        payloads: List = []
        stack = [self.full_mask]
        while stack:
            mask = stack.pop()
            entry = self._parent[mask]
            if entry[0] == "pt":
                payloads.append(entry[1])
            else:
                _tag, s, ks = entry
                stack.append(s)
                stack.append(ks)
        seen = set()
        unique = []
        for p in payloads:
            if p not in seen:
                seen.add(p)
                unique.append(p)
        return tuple(unique)


# ----------------------------------------------------------------------
# Algorithm 3 proper: sorted scan with early termination
# ----------------------------------------------------------------------
def minimum_point_match_distance(
    query_coord: Coord,
    query_activities: FrozenSet[int],
    points: Iterable[Tuple[int, TrajectoryPoint]],
    metric: DistanceMetric,
    trace: Optional[List[Dict[FrozenSet[int], float]]] = None,
) -> float:
    """``Dmpm(q, Tr)`` via Algorithm 3.

    Parameters
    ----------
    query_coord, query_activities:
        The query point ``q`` and its ``q.Φ``.
    points:
        ``(position, point)`` pairs of the candidate point set ``CP`` (any
        order; they are sorted by distance here, as in line 2).
    metric:
        Distance strategy (Euclidean in production, matrix-backed in the
        paper-example tests).
    trace:
        When a list is supplied, a snapshot of ``H`` is appended after each
        processed point — this reproduces the rows of the paper's Table II.

    Returns
    -------
    The minimum point match distance, or ``inf`` when no point match exists.
    """
    table = PointMatchTable(query_activities)
    scored = sorted(
        ((metric(query_coord, p.coord), pos, p) for pos, p in points),
        key=lambda t: (t[0], t[1]),
    )
    for dist, pos, point in scored:
        if table.best() <= dist:
            break  # early termination (lines 5-6)
        table.add(table.overlap_mask(point.activities), dist, payload=pos)
        if trace is not None:
            trace.append(table.snapshot())
    return table.best()


def minimum_point_match(
    query_coord: Coord,
    query_activities: FrozenSet[int],
    points: Iterable[Tuple[int, TrajectoryPoint]],
    metric: DistanceMetric,
) -> Tuple[float, Tuple[int, ...]]:
    """Like :func:`minimum_point_match_distance` but also reconstructs the
    positions of the matched points (``Tr.MPM(q)``), sorted ascending."""
    table = PointMatchTable(query_activities, track_matches=True)
    scored = sorted(
        ((metric(query_coord, p.coord), pos, p) for pos, p in points),
        key=lambda t: (t[0], t[1]),
    )
    for dist, pos, point in scored:
        if table.best() <= dist:
            break
        table.add(table.overlap_mask(point.activities), dist, payload=pos)
    if table.best() is INFINITY or table.best() == INFINITY:
        return INFINITY, ()
    return table.best(), tuple(sorted(table.match_positions()))
