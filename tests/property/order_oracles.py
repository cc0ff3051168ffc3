"""References for the order-sensitive match — moved verbatim out of
``repro.core.order_match``, where only the tests called them:
``dmom_oracle_enum`` (exhaustive ``Dmom``) and ``order_feasible_strict``
(exact feasibility of the order constraint; not in the paper, whose MIB
check ``order_feasible`` is only necessary).
"""

import bisect
from typing import Dict, Tuple

from repro.core.match import INFINITY, PointMatchTable
from repro.core.query import Query
from repro.model.distance import DistanceMetric
from repro.model.trajectory import ActivityTrajectory


def order_feasible_strict(trajectory: ActivityTrajectory, query: Query) -> bool:
    """Extension (not in the paper): exact feasibility of the order
    constraint by per-activity greedy assignment.

    Walk the query points in order keeping ``low``, the smallest position
    the next match may use.  For each query point and each required
    activity, take the *first* posting position ``>= low``; the largest of
    those is the unavoidable frontier, which becomes the next ``low``
    (boundary sharing is allowed, hence no ``+1``).  The greedy frontier is
    minimal by an exchange argument, so this check is exact: it returns
    True iff an order-sensitive match exists.
    """
    posting = trajectory.posting_lists
    low = 0
    for q in query:
        frontier = low
        for activity in q.activities:
            positions = posting.get(activity)
            if not positions:
                return False
            idx = bisect.bisect_left(positions, low)
            if idx == len(positions):
                return False
            if positions[idx] > frontier:
                frontier = positions[idx]
        low = frontier
    return True


def dmom_oracle_enum(
    query: Query,
    trajectory: ActivityTrajectory,
    metric: DistanceMetric,
    max_states: int = 2_000_000,
) -> float:
    """Exhaustive reference for ``Dmom``: recursive enumeration over all
    split points with a memoised exact ``Dmpm`` per (query point, segment).

    Exponential-ish but fine at test sizes; raises if the state budget is
    exceeded so tests fail loudly instead of hanging.
    """
    n = len(trajectory)
    m = len(query)
    points = trajectory.points

    dmpm_cache: Dict[Tuple[int, int, int], float] = {}

    def seg_dmpm(i: int, k: int, j: int) -> float:
        key = (i, k, j)
        if key not in dmpm_cache:
            q = query[i]
            segment = [(pos, points[pos]) for pos in range(k, j + 1)]
            table = PointMatchTable(q.activities)
            for pos, p in segment:
                table.add(table.overlap_mask(p.activities), metric(q.coord, p.coord))
            dmpm_cache[key] = table.best()
        return dmpm_cache[key]

    states = 0

    def rec(i: int, j: int) -> float:
        """Best Dmom of query[0..i] matched within Tr positions [0..j]."""
        nonlocal states
        states += 1
        if states > max_states:
            raise RuntimeError("dmom_oracle_enum state budget exceeded")
        if i < 0:
            return 0.0
        best = INFINITY
        for k in range(j + 1):
            head = rec(i - 1, k)
            if head == INFINITY:
                continue
            tail = seg_dmpm(i, k, j)
            if tail == INFINITY:
                continue
            if head + tail < best:
                best = head + tail
        return best

    return rec(m - 1, n - 1)
