"""The best-first walk ``CandidateRetriever`` ran in Python before it moved
to C (``repro/native/gat.c``) — kept (bar the names, and the ITL read as a
dict of tuples rebuilt from the index's CSR arrays when the walk starts) as
the oracle ``test_retrieval_differential.py`` compares the C walk against,
round by round: rows in order, ``cells_popped`` and leaves, each query
point's frontier, ``queue_top_mdist``, ``exhausted`` and counted reads.

One ``heapq`` heap of ``(mdist, tick, level, code, qi, cx, cy)`` tuples, a
``set`` of handed-out rows, per-activity sets of harvested leaves, and the
child MINDIST combined from the per-(query point, level) axis gap tables
with ``math.hypot`` — the values the C port of ``math.hypot`` must equal.
It also records its pop sequence ``(mdist, level, code, qi)`` — what the
``frozenset`` oracle is checked against.
"""

import itertools
from heapq import heappop, heappush
from math import hypot
from typing import Dict, List, Set, Tuple

from repro.core.context import SearchStats
from repro.core.lower_bound import Frontier
from repro.core.match import INFINITY
from repro.index.gat.apl import ACTIVITY_BITS
from repro.index.gat.hicl import QueryBitmaps

#: Per child-occupancy nibble, ``(j, dx, dy)`` of its set bits, ascending.
_NIBBLE_CHILDREN = tuple(
    tuple((j, j & 1, j >> 1) for j in range(4) if n >> j & 1) for n in range(16)
)


class PythonWalkRetriever:
    """``CandidateRetriever`` as it was, with a ``stats``-like pair of
    counters (``cells_popped``, ``leaf_cells_visited``) of its own, and a
    :class:`SearchStats` its HICL view counts cache lookups on."""

    def __init__(self, index, query) -> None:
        self.index = index
        self.query = query
        self.cells_popped = self.leaf_cells_visited = 0
        self.pops: List[Tuple[float, int, int, int]] = []
        self.heap: List[Tuple[float, int, int, int, int, int, int]] = []
        self.stats = SearchStats()
        self.bitmaps = QueryBitmaps(index.hicl, query, self.stats)
        self.seen: Set[int] = set()
        keys, offsets, rows, _n_rows = index.itl.arrays
        bounds = offsets.tolist()
        flat = rows.tolist()
        self._lists: Dict[int, Tuple[int, ...]] = {
            key: tuple(flat[lo:hi]) for key, lo, hi in zip(keys.tolist(), bounds, bounds[1:])
        }
        done: Dict[int, Set[int]] = {}
        self._done = [
            tuple((a, done.setdefault(a, set())) for a in acts) for acts in self.bitmaps.activities
        ]
        self._tables: List[list] = [[None] * (index.grid.depth + 1) for _ in query]
        self._tick = itertools.count()
        self._parents = [(qi, 0, 0, 0, 0) for qi in reversed(range(len(query)))]
        self.retrieve(0)

    def _level_tables(self, qi: int, level: int) -> tuple:
        bitmaps = self.bitmaps
        union = (bitmaps._maps[qi][level] or bitmaps._load(qi, level))[0]
        gaps = self.index.grid.levels[level - 1].axis_gaps(self.query[qi].coord)
        tables = self._tables[qi][level] = (union, *gaps)
        return tables

    def queue_top_mdist(self) -> float:
        return self.heap[0][0] if self.heap else INFINITY

    def frontiers(self) -> List[Frontier]:
        cells: List[list] = [[] for _ in self.query]
        for mdist, _tick, level, code, qi, _cx, _cy in self.heap:
            cells[qi].append((mdist, level, code))
        return [Frontier(entries) for entries in cells]

    def retrieve(self, batch: int, stop_mdist: float = INFINITY) -> List[int]:
        heap, tick, tables, parents = self.heap, self._tick, self._tables, self._parents
        lists = self._lists.get
        harvested = self._done
        depth = self.index.grid.depth
        seen = self.seen
        all_seen = seen.issuperset
        new_candidates: List[int] = []

        while True:
            if parents:
                qi, level, code, cx, cy = parents.pop()
            elif heap and len(new_candidates) < batch and heap[0][0] <= stop_mdist:
                mdist, _tick, level, code, qi, cx, cy = heappop(heap)
                self.pops.append((mdist, level, code, qi))
                self.cells_popped += 1
                if level == depth:
                    self.leaf_cells_visited += 1
                    fresh: Set[int] = set()
                    for activity, done in harvested[qi]:
                        if code not in done:
                            done.add(code)
                            rows = lists((code << ACTIVITY_BITS) | activity, ())
                            if not all_seen(rows):
                                fresh.update(rows)
                    if fresh:
                        ascending = sorted(fresh - seen)
                        seen.update(ascending)
                        new_candidates += ascending
                    continue
            else:
                break
            level += 1
            union, gx, gy = tables[qi][level] or self._level_tables(qi, level)
            base, cx, cy = code << 2, cx << 1, cy << 1
            for j, dx, dy in _NIBBLE_CHILDREN[(union[code >> 1] >> ((code & 1) << 2)) & 15]:
                x, y = gx[cx + dx], gy[cy + dy]
                mdist = y if x == 0.0 else x if y == 0.0 else hypot(x, y)
                heappush(heap, (mdist, next(tick), level, base + j, qi, cx + dx, cy + dy))

        self.exhausted = not heap
        return new_candidates
