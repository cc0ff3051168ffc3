"""Top-k result collection shared by every searcher."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One ranked trajectory.

    ``matches`` is optional reconstruction detail: for ATSQ a tuple of
    position tuples (one per query point, the minimum point match); for
    OATSQ the order-sensitive assignment.  Populated only when the caller
    asked to ``explain`` — reconstruction costs extra work.
    """

    trajectory_id: int
    distance: float
    matches: Optional[Tuple[Tuple[int, ...], ...]] = None


class TopKCollector:
    """Bounded max-heap of the best (smallest-distance) k trajectories.

    Ties are broken by trajectory ID so result ordering is deterministic
    across searchers (needed by the cross-method agreement tests).
    """

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        # Max-heap via negated keys: worst kept entry on top.
        self._heap: List[Tuple[float, int, SearchResult]] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, trajectory_id: int) -> bool:
        return trajectory_id in self._members

    def offer(self, result: SearchResult) -> bool:
        """Consider *result*; returns True when it entered the top-k.

        A trajectory already present is never re-offered (searchers
        deduplicate, this is a safety net that keeps results distinct as
        the query definition demands).
        """
        if result.trajectory_id in self._members or math.isinf(result.distance):
            return False
        key = (-result.distance, -result.trajectory_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (key[0], key[1], result))
            self._members.add(result.trajectory_id)
            return True
        worst_key = (self._heap[0][0], self._heap[0][1])
        if key > worst_key:  # smaller distance (keys are negated)
            _, _, evicted = heapq.heapreplace(self._heap, (key[0], key[1], result))
            self._members.discard(evicted.trajectory_id)
            self._members.add(result.trajectory_id)
            return True
        return False

    def kth_distance(self) -> float:
        """The current k-th smallest distance (``D^k_mm`` / ``D^k_mom``), or
        ``inf`` while fewer than k results are held — the pruning threshold
        of Algorithm 1."""
        if len(self._heap) < self.k:
            return math.inf
        return -self._heap[0][0]

    def results(self) -> List[SearchResult]:
        """Final ranking: ascending distance, ties by trajectory ID."""
        return sorted(
            (entry[2] for entry in self._heap),
            key=lambda r: (r.distance, r.trajectory_id),
        )
