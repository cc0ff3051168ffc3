"""Minimum order-sensitive match distance — Section VI of the paper.

OATSQ constrains the point matches of consecutive query points to appear in
non-decreasing trajectory-position order (Definition 7; sharing a boundary
point is allowed — "smaller than *or equal to*").  Lemma 1's decomposition
no longer holds, so ``Dmom`` is computed by the dynamic program of
Algorithm 4 over the matrix

    G(i, j) = min over k in [1, j] of  G(i-1, k) + Dmpm(q_i, Tr[k, j])

with the guardian row ``G(0, *) = 0``.  Both paper optimisations are
implemented:

* the inner ``k`` loop runs from ``j`` down to ``1`` so ``Dmpm`` over
  ``Tr[k, j]`` is evaluated *incrementally* (one
  :class:`~repro.core.match.PointMatchTable` per ``(i, j)`` cell, extended a
  point at a time), and breaks as soon as ``G(i-1, k) = +inf`` (Lemma 4);
* after each row, ``G(i, |Tr|)`` is compared against the running k-th best
  distance — if it already exceeds the threshold the whole candidate is
  abandoned (monotonicity property 2 of Lemma 4).

The module also implements the *matching index bound* (MIB) validation of
Section VI-B — a cheap necessary condition that rejects candidates whose
activity positions cannot possibly be ordered correctly — per candidate,
from the object model: what the per-candidate ``dmom`` entry (RT / IRT)
checks first, and the oracle of the GAT engine's whole-round array form
(:class:`repro.core.pipeline.MIBFilter`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.match import INFINITY, PointMatchTable, minimum_point_match
from repro.core.query import Query, QueryPoint
from repro.model.distance import DistanceMetric
from repro.model.trajectory import ActivityTrajectory


def relevant_points(
    trajectory: ActivityTrajectory, query: Query
) -> List["TrajectoryPointRef"]:
    """The subsequence of trajectory points carrying at least one query
    activity, with original positions preserved.

    Points with no query activity can never belong to a point match, and
    dropping them preserves the relative order of all points that can — so
    running Algorithm 4 over this subsequence is exactly equivalent (proved
    by mapping any order-sensitive match back and forth; the test suite
    checks equality against the uncompressed DP).  Since the DP is
    ``O(|Q| * n^2)`` table updates, the compression is the single biggest
    OATSQ optimisation.
    """
    activities = query.all_activities
    return [
        (pos, p)
        for pos, p in enumerate(trajectory.points)
        if not p.activities.isdisjoint(activities)
    ]


TrajectoryPointRef = Tuple[int, "object"]


def minimum_order_match_distance(
    query: Query,
    trajectory: ActivityTrajectory,
    metric: DistanceMetric,
    threshold: float = INFINITY,
    g_matrix: Optional[List[List[float]]] = None,
    compress: bool = True,
) -> float:
    """``Dmom(Q, Tr)`` via Algorithm 4.

    Parameters
    ----------
    query, trajectory, metric:
        The inputs of the distance function.
    threshold:
        The current k-th smallest ``Dmom`` (``D^k_mom``); rows whose final
        entry exceed it abort the computation (returning ``inf``), which is
        sound by Lemma 4.
    g_matrix:
        Optional output: when a list is supplied it is filled with the full
        ``G`` matrix (``g_matrix[i][j]``, 1-based like the paper's Table
        III, row 0 being the guardian row).  Forces full evaluation (the
        threshold early-exit is disabled) and disables compression so the
        matrix matches the paper's indexing.
    compress:
        Run the DP over the query-relevant subsequence only (equivalent,
        much faster; see :func:`relevant_points`).

    Returns
    -------
    ``Dmom(Q, Tr)`` or ``inf`` when no order-sensitive match exists (or the
    threshold pruned the computation).
    """
    m = len(query)
    keep_matrix = g_matrix is not None
    if keep_matrix or not compress:
        points = trajectory.points
    else:
        points = [p for _pos, p in relevant_points(trajectory, query)]
        if not points:
            return INFINITY
    n = len(points)

    prev: List[float] = [0.0] * (n + 1)  # G(0, *) = 0 — guardian row
    if keep_matrix:
        g_matrix.clear()
        g_matrix.append(list(prev))

    for i in range(1, m + 1):
        q = query[i - 1]
        cur: List[float] = [INFINITY] * (n + 1)
        for j in range(1, n + 1):
            table = PointMatchTable(q.activities)
            best = INFINITY
            # k descends from j to 1; the table incrementally absorbs p_k.
            for k in range(j, 0, -1):
                if prev[k] == INFINITY:
                    break  # Lemma 4: G(i-1, k') is infinite for all k' < k
                point = points[k - 1]
                table.add(table.overlap_mask(point.activities), metric(q.coord, point.coord))
                dmpm = table.best()
                if dmpm == INFINITY:
                    continue
                value = prev[k] + dmpm
                if value < best:
                    best = value
            cur[j] = best
        if keep_matrix:
            g_matrix.append(list(cur))
        elif cur[n] > threshold:
            # Early termination across rows (paper lines 9-10): by Lemma 4
            # the final G(|Q|, |Tr|) can only be larger.
            return INFINITY
        prev = cur
    return prev[n]


def minimum_order_match(
    query: Query,
    trajectory: ActivityTrajectory,
    metric: DistanceMetric,
) -> Tuple[float, Tuple[Tuple[int, ...], ...]]:
    """``Dmom`` plus the realising order-sensitive match.

    Returns ``(distance, per-query-point position tuples)``; positions are
    0-based trajectory indexes.  ``(inf, ())`` when no match exists.

    Reconstruction strategy: compute the full ``G`` matrix while remembering
    the arg-min split ``k`` of every cell, then walk back from
    ``G(m, n)`` re-deriving each row's point match over ``Tr[k, j]``.
    """
    n = len(trajectory)
    m = len(query)
    points = trajectory.points

    prev: List[float] = [0.0] * (n + 1)
    rows: List[List[float]] = [list(prev)]
    splits: List[List[int]] = [[0] * (n + 1)]

    for i in range(1, m + 1):
        q = query[i - 1]
        cur = [INFINITY] * (n + 1)
        cur_split = [0] * (n + 1)
        for j in range(1, n + 1):
            table = PointMatchTable(q.activities)
            best = INFINITY
            best_k = 0
            for k in range(j, 0, -1):
                if prev[k] == INFINITY:
                    break
                point = points[k - 1]
                table.add(table.overlap_mask(point.activities), metric(q.coord, point.coord))
                dmpm = table.best()
                if dmpm == INFINITY:
                    continue
                value = prev[k] + dmpm
                if value < best:
                    best = value
                    best_k = k
            cur[j] = best
            cur_split[j] = best_k
        rows.append(cur)
        splits.append(cur_split)
        prev = cur

    if rows[m][n] == INFINITY:
        return INFINITY, ()

    # Backtrack: at row i, the match for q_i lives inside Tr[k, j].
    matches: List[Tuple[int, ...]] = []
    j = n
    for i in range(m, 0, -1):
        k = splits[i][j]
        q = query[i - 1]
        segment = [(pos, points[pos]) for pos in range(k - 1, j)]
        _dist, positions = minimum_point_match(q.coord, q.activities, segment, metric)
        matches.append(positions)
        j = k
    matches.reverse()
    return rows[m][n], tuple(matches)


# ----------------------------------------------------------------------
# Candidate validation (Section VI-B)
# ----------------------------------------------------------------------
def matching_index_bounds(
    trajectory: ActivityTrajectory, query_point: QueryPoint
) -> Optional[Tuple[int, int]]:
    """``MIB(q)`` — the smallest and greatest positions of trajectory points
    containing *any* activity of ``q.Φ`` (0-based), or ``None`` when no
    point contains any of them."""
    lb = math.inf
    ub = -math.inf
    posting = trajectory.posting_lists
    for activity in query_point.activities:
        positions = posting.get(activity)
        if not positions:
            continue
        if positions[0] < lb:
            lb = positions[0]
        if positions[-1] > ub:
            ub = positions[-1]
    if ub < 0:
        return None
    return int(lb), int(ub)


def order_feasible(trajectory: ActivityTrajectory, query: Query) -> bool:
    """The paper's MIB check: reject when some pair ``i < j`` of query
    points has ``MIB(q_i).lb > MIB(q_j).ub``.

    A *necessary* condition only — survivors may still have ``Dmom = inf``
    (the DP is the final arbiter) — but it never rejects a trajectory that
    has an order-sensitive match.
    """
    bounds: List[Tuple[int, int]] = []
    for q in query:
        mib = matching_index_bounds(trajectory, q)
        if mib is None:
            return False
        bounds.append(mib)
    running_max_lb = -1
    for lb, ub in bounds:
        if running_max_lb > ub:
            return False
        if lb > running_max_lb:
            running_max_lb = lb
    return True
