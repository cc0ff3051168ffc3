"""Brute-force references for the minimum point match distance
(Definition 4) — moved verbatim out of ``repro.core.match``, where only
the tests called them: a textbook increasing-mask set-cover DP and an
explicit enumeration over point subsets.
"""

from itertools import combinations
from typing import FrozenSet, List, Sequence, Tuple

from repro.core.match import INFINITY


def mpm_oracle_mask_dp(
    scored_points: Sequence[Tuple[float, FrozenSet[int]]],
    query_activities: FrozenSet[int],
) -> float:
    """Textbook exact min-cost set-cover DP in increasing-mask order.

    ``dp[mask]`` = cheapest cost to cover exactly the activities in
    ``mask``; transitions consider every point from every mask.  O(2^n * P)
    and obviously correct — the gold standard the paper's Algorithm 3 is
    tested against.
    """
    activities = sorted(query_activities)
    bit_of = {a: i for i, a in enumerate(activities)}
    full = (1 << len(activities)) - 1
    point_masks: List[Tuple[float, int]] = []
    for dist, acts in scored_points:
        mask = 0
        for a in acts:
            if a in bit_of:
                mask |= 1 << bit_of[a]
        if mask:
            point_masks.append((dist, mask))
    dp = [INFINITY] * (full + 1)
    dp[0] = 0.0
    for mask in range(full + 1):
        if dp[mask] is INFINITY or dp[mask] == INFINITY:
            continue
        base = dp[mask]
        for dist, pmask in point_masks:
            nxt = mask | pmask
            if base + dist < dp[nxt]:
                dp[nxt] = base + dist
    return dp[full]


def mpm_oracle_subset_enum(
    scored_points: Sequence[Tuple[float, FrozenSet[int]]],
    query_activities: FrozenSet[int],
    max_points: int = 14,
) -> float:
    """Explicit enumeration over subsets of candidate points.

    Exponential in the number of points; the test suite only calls it on
    small inputs.  Definitionally identical to Definition 4.
    """
    pts = list(scored_points)
    if len(pts) > max_points:
        raise ValueError(f"subset enumeration capped at {max_points} points")
    best = INFINITY
    target = set(query_activities)
    for r in range(1, len(pts) + 1):
        for combo in combinations(pts, r):
            covered: set[int] = set()
            cost = 0.0
            for dist, acts in combo:
                covered |= acts
                cost += dist
            if target <= covered and cost < best:
                best = cost
    return best
