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

Also here, because only this walk uses them: :class:`QueryBitmaps`, the
per-query read view of the HICL the walk's tables came from (the C walk
ORs the rows itself), and :func:`axis_gaps`, the per-level gap tables (the
C walk computes each child's gaps from the grid's extents).
"""

import itertools
from functools import reduce
from heapq import heappop, heappush
from math import hypot
from operator import or_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from bound_oracle import Frontier
from repro.core.context import SearchStats
from repro.core.match import INFINITY
from repro.index.gat.apl import ACTIVITY_BITS
from repro.index.gat.hicl import row_bytes
from repro.native import lib


def axis_gaps(grid_level, point) -> Tuple[List[float], List[float]]:
    """``(column gaps, row gaps)`` of a ``GridLevel``: per column ``k``, the
    ``dx`` that :func:`~repro.geometry.primitives.min_dist_to_box` computes
    from *point* to the column's extent ``[lo, hi]`` (``lo - x`` left of
    it, ``x - hi`` right of it, ``0.0`` inside) — and per row the same
    ``dy``.

    The cell in column ``cx``, row ``cy`` then has ``MINDIST`` ``dy if
    dx == 0 else dx if dy == 0 else hypot(dx, dy)`` — the combine
    ``min_dist_to_box`` ends with, on the same two floats, so the value is
    bit-identical to ``GridLevel.min_dist``.
    """
    x, y = point
    return (
        [lo - x if x < lo else x - hi if x > hi else 0.0 for lo, hi in grid_level._columns],
        [lo - y if y < lo else y - hi if y > hi else 0.0 for lo, hi in grid_level._rows],
    )


def c_axis_gaps(grid, level: int, point) -> Tuple[List[float], List[float]]:
    """The gaps the C walk computes at *level* (``gat_axis_gap`` over
    ``grid.extents()``, the arrays it reads), in :func:`axis_gaps`' layout."""
    first, side = (1 << level) - 2, 1 << level
    x, y = point
    columns, rows = (extents[first:first + side].tolist() for extents in grid.extents())
    gap = lib.gat_axis_gap
    return [gap(x, lo, hi) for lo, hi in columns], [gap(y, lo, hi) for lo, hi in rows]


class QueryBitmaps:
    """One query's read view of the HICL.

    Per (query point ``q_i``, level) it holds the OR of the byte rows of
    ``q_i.Φ`` and each activity's own row (``bytes``, so a probe is O(1)
    whatever the level's size).  A level is loaded on first use through
    :meth:`HICL.bitmap`, once per activity, so a query makes one cache
    lookup per (level, activity) of each query point — the loads, and
    their order, the C walk makes for its disk-resident levels.
    """

    __slots__ = ("hicl", "stats", "activities", "_maps")

    def __init__(self, hicl, query: Sequence, stats=None) -> None:
        self.hicl = hicl
        #: The query's :class:`SearchStats`, which counts the view's HICL
        #: cache lookups (``None``: uncounted).
        self.stats = stats
        #: Per query point, ``q_i.Φ`` in a fixed order: bit ``j`` of an
        #: overlap mask stands for ``activities[qi][j]``.
        self.activities: List[Tuple[int, ...]] = [tuple(q.activities) for q in query]
        #: ``_maps[qi][level]`` = (OR of the rows, one row per activity).
        self._maps: List[List[Optional[Tuple[bytes, Tuple[bytes, ...]]]]] = [
            [None] * (hicl.grid.depth + 1) for _ in query
        ]

    def _load(self, qi: int, level: int) -> Tuple[bytes, Tuple[bytes, ...]]:
        layers = tuple(self.hicl.bitmap(a, level, self.stats) for a in self.activities[qi])
        union = reduce(or_, (int.from_bytes(row, "little") for row in layers), 0)
        maps = self._maps[qi][level] = (union.to_bytes(row_bytes(level), "little"), layers)
        return maps

    def child_nibble(self, qi: int, level: int, parent: int) -> int:
        """Which of the four *level* cells under cell *parent* (at
        ``level - 1``; ``0`` for the root) contain at least one of
        ``q_i``'s activities: bit ``j`` stands for child ``4·parent + j`` —
        the pruned child expansion of Section V-A in one read."""
        union = (self._maps[qi][level] or self._load(qi, level))[0]
        return (union[parent >> 1] >> ((parent & 1) << 2)) & 15

    def overlap_mask(self, qi: int, level: int, code: int) -> int:
        """``c.Φ ∩ q_i.Φ`` of cell *code* as a mask over
        ``activities[qi]`` — what equips Algorithm 2's virtual points."""
        layers = (self._maps[qi][level] or self._load(qi, level))[1]
        byte, bit = code >> 3, code & 7
        mask = 0
        for j, layer in enumerate(layers):
            mask |= ((layer[byte] >> bit) & 1) << j
        return mask

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
        gaps = axis_gaps(self.index.grid.levels[level - 1], self.query[qi].coord)
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
