"""Algorithm 2 as the engine ran it in Python before the bound moved into the
C walk (``gat_walk_bound`` in ``repro/native/gat.c``) — kept (bar the
names) as the oracle the C bound is compared against.

* :class:`Frontier`, the per-round snapshot of one query point's queued
  cells, nearest first, ties by ``(level, code)``, and :func:`frontiers`,
  which reads it off a ``CandidateRetriever``'s C heap (or a Python walk's
  own ``frontiers()``);
* :func:`min_cover_cost` and its relaxation table :func:`_cover_steps`,
  the Python min-cost set cover (the ``Dmom`` and per-candidate oracles
  fold with the same table);
* :func:`lower_bound_distance`, ``D_lb`` over frontiers and a
  ``QueryBitmaps`` view (``python_walk_oracle.py``), and
  :func:`contributions`, its per-point terms before the sum.
"""

import functools
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.match import INFINITY
from repro.native import ffi

# A frontier entry: (mdist, level, cell code).
FrontierEntry = Tuple[float, int, int]

#: The C walk's heap entry as a NumPy record, for reading the queue in place.
ENTRY = np.dtype(
    [("mdist", "f8"), ("tick", "i8"), ("code", "i8"),
     ("level", "i4"), ("qi", "i4"), ("cx", "i4"), ("cy", "i4")]
)
assert ENTRY.itemsize == ffi.sizeof("gat_entry")


class Frontier:
    """The not-yet-visited cells of one query point (the paper's
    ``cellsn(q_i)``), nearest first, ties by ``(level, code)``.

    Built from the *complete* entry set (not truncated to ``m``): dropping
    far cells would make the cap unsound once nearer cells are consumed.
    ``m`` only limits how many cells feed the virtual trajectory.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[FrontierEntry] = ()) -> None:
        self._entries: List[FrontierEntry] = sorted(entries)

    def nearest(self, m: int) -> List[FrontierEntry]:
        return self._entries[:m]

    def mth_distance(self, m: int) -> float:
        """Distance of the ``m``-th nearest frontier cell, ``+inf`` when the
        frontier is shorter than ``m`` (no dropped cells to guard against)."""
        if len(self._entries) >= m:
            return self._entries[m - 1][0]
        return INFINITY

    def __len__(self) -> int:
        return len(self._entries)


def queue(retriever) -> List[tuple]:
    """A ``CandidateRetriever``'s queued entries, ``(mdist, tick, code,
    level, qi, cx, cy)``, in heap order."""
    walk = retriever.walk
    if not walk.size:
        return []
    heap = ffi.buffer(walk.heap, walk.size * ENTRY.itemsize)
    return np.frombuffer(heap, dtype=ENTRY).tolist()


def frontiers(retriever) -> List[Frontier]:
    """Each query point's not-yet-visited cells, read off the C queue."""
    cells: List[list] = [[] for _ in retriever.query]
    for mdist, _tick, code, level, qi, _cx, _cy in queue(retriever):
        cells[qi].append((mdist, level, code))
    return [Frontier(entries) for entries in cells]


class _CoverSteps(dict):
    """The relaxation table over ``2^n_bits`` cover states, built mask by
    mask on first use: ``steps[pm]`` lists the ``(t, t & ~pm)`` pairs —
    every state ``t`` a point with overlap mask ``pm`` helps cover, beside
    the remainder it is relaxed from — in ascending ``t``.  A remainder
    never shares a bit with ``pm``, so no pair reads a state the same fold
    writes, and ``steps[0]`` is empty (an irrelevant point folds nothing).
    """

    def __init__(self, n_bits: int) -> None:
        self.size = 1 << n_bits

    def __missing__(self, pm: int) -> Tuple[Tuple[int, int], ...]:
        steps = self[pm] = tuple((t, t & ~pm) for t in range(1, self.size) if t & pm)
        return steps


#: One shared table per state-space size.
_cover_steps = functools.lru_cache(maxsize=None)(_CoverSteps)


def min_cover_cost(entries: Sequence[Tuple[float, int]], n_bits: int) -> float:
    """Exact min-cost set cover over ``(dist, mask)`` entries.

    ``dp[t]`` is the cheapest cost of a point set whose mask union covers
    ``t``; folding one entry in performs exactly the additions
    ``dp[t & ~mask] + dist`` that :class:`~repro.core.match.PointMatchTable`
    performs (best remainder plus the new distance), so the result is
    bit-identical to adding the same entries to a table in the same order.
    """
    steps = _cover_steps(n_bits)
    dp = [0.0] + [INFINITY] * ((1 << n_bits) - 1)
    for dist, pm in entries:
        for t, rest in steps[pm]:
            v = dp[rest] + dist
            if v < dp[t]:
                dp[t] = v
    return dp[-1]


def contributions(frontiers: Sequence[Frontier], bitmaps, m: int) -> List[float]:
    """Each query point's term of ``D_lb``, in query order, up to and
    including the first infinite one."""
    terms = []
    for qi, frontier in enumerate(frontiers):
        if not frontier:
            return terms + [INFINITY]  # no unseen trajectory can match q_i at all
        # The virtual trajectory's point match, via the set-cover (cells
        # without overlap carry an empty mask, which it skips).
        entries = [
            (mdist, bitmaps.overlap_mask(qi, level, code))
            for mdist, level, code in frontier.nearest(m)
        ]
        cover = min_cover_cost(entries, len(bitmaps.activities[qi]))
        terms.append(min(cover, frontier.mth_distance(m)))
        if terms[-1] == INFINITY:
            return terms
    return terms


def lower_bound_distance(frontiers: Sequence[Frontier], bitmaps, m: int) -> float:
    """``D_lb`` — Algorithm 2 summed over all query points, in query order.

    *frontiers* holds one :class:`Frontier` per query point; *bitmaps* (a
    ``python_walk_oracle.QueryBitmaps``) supplies each cell's
    query-activity overlap as a mask over ``bitmaps.activities[qi]``.
    """
    total = 0.0
    for term in contributions(frontiers, bitmaps, m):
        if term == INFINITY:
            return INFINITY
        total += term
    return total
