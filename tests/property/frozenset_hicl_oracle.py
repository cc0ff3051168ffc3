"""The per-cell ``frozenset`` walk the best-first retrieval ran on before
the HICL became bitmaps — kept (bar names, and reading the lists through
``HICL.cells_with_activity``, the decoded view of the bitmap with the same
cache/disk accounting) as the oracle ``test_retrieval_differential.py``
compares the bitmap walk against, pop by pop (the Python one in
``python_walk_oracle.py``; the C walk is compared with that one).

What lives here and nowhere in ``src/`` any more:

* the four ``frozenset`` walkers of the HICL (``cells_with_any``,
  ``cell_has_any``, ``cell_activity_overlap``, ``children_with_any``): one
  list lookup per activity per probed cell;
* :class:`InsortFrontier`, the per-query-point sorted list booked on every
  push (``insort``) and pop (``remove``);
* :class:`OracleRetriever`, ``CandidateRetriever`` as it was: a ``Rect``
  per child MINDIST via ``GridLevel.rect(code).min_dist``, a frontier
  update beside every heap operation (it also records its pop sequence),
  and a leaf harvest that walks the id lists of ``itl_oracle.ITL`` — built
  over the index's database when the retriever is — trajectory by
  trajectory, emitting each leaf's new ones in ascending **row** order,
  the order production defines;
* :func:`oracle_lower_bound`, Algorithm 2 rebuilding its activity→bit
  table per query point per round.
"""

import bisect
import heapq
import itertools
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from itl_oracle import ITL
from repro.core.kernels import min_cover_cost
from repro.core.match import INFINITY


# ----------------------------------------------------------------------
# The HICL walkers
# ----------------------------------------------------------------------
def cells_with_any(hicl, activities: Iterable[int], level: int) -> FrozenSet[int]:
    """Union of the per-activity cell lists."""
    out: Set[int] = set()
    for activity in activities:
        out |= hicl.cells_with_activity(activity, level)
    return frozenset(out)


def cell_has_any(hicl, code: int, activities: Iterable[int], level: int) -> bool:
    """Does the cell contain at least one of *activities*?"""
    return any(
        code in hicl.cells_with_activity(activity, level) for activity in activities
    )


def cell_activity_overlap(
    hicl, code: int, activities: Iterable[int], level: int
) -> FrozenSet[int]:
    """``c.Φ ∩ activities`` — the subset of *activities* present in the cell."""
    return frozenset(
        activity
        for activity in activities
        if code in hicl.cells_with_activity(activity, level)
    )


def children_with_any(hicl, code: int, level: int, activities: Iterable[int]) -> List[int]:
    """The (up to four) children of cell *code* at ``level + 1`` that
    contain at least one of *activities*."""
    child_level = level + 1
    lists = [hicl.cells_with_activity(a, child_level) for a in list(activities)]
    base = code << 2
    out = []
    for child in (base, base + 1, base + 2, base + 3):
        if any(child in cells for cells in lists):
            out.append(child)
    return out


# ----------------------------------------------------------------------
# The booked frontier and Algorithm 2 over it
# ----------------------------------------------------------------------
class InsortFrontier:
    """Sorted list of not-yet-visited cells for one query point."""

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int, int]] = []

    def add(self, mdist: float, level: int, code: int) -> None:
        bisect.insort(self._entries, (mdist, level, code))

    def remove(self, mdist: float, level: int, code: int) -> None:
        idx = bisect.bisect_left(self._entries, (mdist, level, code))
        if idx < len(self._entries) and self._entries[idx] == (mdist, level, code):
            self._entries.pop(idx)

    def nearest(self, m: int) -> List[Tuple[float, int, int]]:
        return self._entries[:m]

    def mth_distance(self, m: int) -> float:
        if len(self._entries) >= m:
            return self._entries[m - 1][0]
        return INFINITY

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


def oracle_lower_bound(query, frontiers: Dict[int, InsortFrontier], hicl, m: int) -> float:
    """``D_lb`` — Algorithm 2 summed over all query points."""
    total = 0.0
    for qi, q in enumerate(query):
        frontier = frontiers[qi]
        if not frontier:
            return INFINITY
        activities = list(dict.fromkeys(q.activities))
        bit_of = {a: 1 << i for i, a in enumerate(activities)}
        entries: List[Tuple[float, int]] = []
        for mdist, level, code in frontier.nearest(m):
            overlap = cell_activity_overlap(hicl, code, q.activities, level)
            if overlap:
                mask = 0
                for a in overlap:
                    bit = bit_of.get(a)
                    if bit is not None:
                        mask |= bit
                entries.append((mdist, mask))
        cover = min_cover_cost(entries, len(activities))
        contribution = min(cover, frontier.mth_distance(m))
        if contribution == INFINITY:
            return INFINITY
        total += contribution
    return total


# ----------------------------------------------------------------------
# The retriever
# ----------------------------------------------------------------------
class OracleRetriever:
    """Best-first traversal state for one query, as it was."""

    def __init__(self, index, query) -> None:
        self.index = index
        self.query = query
        self.heap: List[Tuple[float, int, int, int, int]] = []
        self.frontiers: Dict[int, InsortFrontier] = {
            qi: InsortFrontier() for qi in range(len(query))
        }
        self.seen: Set[int] = set()
        self.itl = ITL.build(index.db, index.grid)
        self.exhausted = False
        self.pops: List[Tuple[float, int, int, int]] = []
        self._tick = itertools.count()
        level_1 = index.grid.level(1)
        for qi, q in enumerate(query):
            for code in cells_with_any(index.hicl, q.activities, 1):
                self._push(level_1.rect(code).min_dist(q.coord), 1, code, qi)

    def _push(self, mdist: float, level: int, code: int, qi: int) -> None:
        heapq.heappush(self.heap, (mdist, next(self._tick), level, code, qi))
        self.frontiers[qi].add(mdist, level, code)

    def retrieve(self, batch: int, stop_mdist: float = INFINITY) -> List[int]:
        """The round's new candidates as trajectory **ids**."""
        hicl = self.index.hicl
        row_of = self.index.apl.row_of
        grid = self.index.grid
        new_candidates: List[int] = []
        while self.heap and len(new_candidates) < batch:
            if self.heap[0][0] > stop_mdist:
                break
            mdist, _tick, level, code, qi = heapq.heappop(self.heap)
            self.pops.append((mdist, level, code, qi))
            q = self.query[qi]
            self.frontiers[qi].remove(mdist, level, code)
            if level < grid.depth:
                child_level = grid.level(level + 1)
                for child in children_with_any(hicl, code, level, q.activities):
                    child_mdist = child_level.rect(child).min_dist(q.coord)
                    self._push(child_mdist, level + 1, child, qi)
            else:
                new = self.itl.trajectories_with_any(code, q.activities) - self.seen
                self.seen |= new
                new_candidates.extend(sorted(new, key=row_of))
        if not self.heap:
            self.exhausted = True
        return new_candidates

    def lower_bound(self, m: int) -> float:
        return oracle_lower_bound(self.query, self.frontiers, self.index.hicl, m)
