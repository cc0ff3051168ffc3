"""Lower bound for "unseen" trajectories — Algorithm 2 (Section V-B).

During candidate retrieval the engine must know how good a trajectory it
has *not* seen yet could possibly be.  The trivial bound (the ``mdist`` at
the top of the priority queue) "is too loose to be useful in practice"; the
paper instead keeps, per query point ``q_i``, the sorted frontier of
not-yet-visited cells that contain at least one of ``q_i``'s activities,
and builds a *virtual trajectory* from the ``m`` nearest frontier cells:
one virtual point per cell, carrying the cell's query-activity overlap at
distance ``mdist(q_i, cell)``.  The minimum point match distance over those
virtual points lower-bounds the true ``Dmpm`` of every unseen trajectory,
and is capped by the ``m``-th cell's distance (any match reaching past the
kept cells costs at least that much for a single point).

Soundness at the edges (where the paper's prose is silent):

* when the frontier holds fewer than ``m`` cells there are no dropped
  cells, so the cap is ``+inf`` rather than the last cell's distance;
* when the frontier is *empty*, every cell containing any of ``q_i``'s
  activities has been visited, so every trajectory able to match ``q_i``
  has already been retrieved as a candidate — the contribution for unseen
  trajectories is ``+inf`` (the paper falls back to the queue-top
  ``mdist``; ``+inf`` is both sound and tighter, and makes termination on
  exhausted frontiers immediate).

When Algorithm 2 runs.  Algorithm 1 reads ``D_lb`` only through its
termination test ``τ < D_lb`` (``τ`` the current k-th best distance), so
:func:`beats_unseen` answers that test and runs the min-cover of
:func:`lower_bound_distance` only when cheaper bounds cannot.  An infinite
``τ`` never stops the search.  Otherwise one pass over the queue (in C,
:meth:`~repro.core.pipeline.CandidateRetriever.queue_sums`) buckets each
query point's ``mdist`` values: an empty bucket means ``D_lb = +inf``;
else each contribution lies between the bucket's nearest distance ``d_1``
(a cover uses at least one cell, as ``q_i.Φ ≠ ∅``, and costs at least its
distance; the cap is at least ``d_1`` too) and its ``m``-th ``d_m`` (the
cap; ``+inf`` below ``m`` cells).  ``Σ d_1`` and ``Σ d_m`` are accumulated
in query-point order, the order ``D_lb`` sums its contributions in, and
IEEE addition is monotone, so ``Σ d_1 ≤ D_lb ≤ Σ d_m`` holds exactly for
the computed floats: ``τ < Σ d_1`` stops the search, ``τ ≥ Σ d_m``
continues it, and only a ``τ`` between them needs the exact value.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from repro.core.kernels import min_cover_cost
from repro.core.match import INFINITY
from repro.index.gat.hicl import QueryBitmaps

#: ``m`` of Algorithm 2 — frontier cells per virtual trajectory, as the
#: engine runs it.  :func:`lower_bound_distance` / :func:`beats_unseen`
#: take ``m`` as an argument so the property tests can vary it.
LB_CELLS = 8

# A frontier entry: (mdist, level, cell code).
FrontierEntry = Tuple[float, int, int]


class Frontier:
    """The not-yet-visited cells of one query point (the paper's
    ``cellsn(q_i)``), nearest first, ties by ``(level, code)``.

    A per-round snapshot: ``q_i``'s frontier is exactly the best-first
    queue's entries carrying ``q_i``, so the retriever reads it off the
    heap when Algorithm 2 asks (:meth:`CandidateRetriever.frontiers`)
    instead of booking every push and pop a second time.

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


def lower_bound_distance(
    frontiers: Sequence[Frontier], bitmaps: QueryBitmaps, m: int
) -> float:
    """``D_lb`` — Algorithm 2 summed over all query points.

    Parameters
    ----------
    frontiers:
        One :class:`Frontier` per query point, in query order.
    bitmaps:
        The query's HICL view: supplies each cell's query-activity overlap
        (the virtual points' activity sets, line 6 of Algorithm 2) as a
        mask over ``bitmaps.activities[qi]``.
    m:
        Number of nearest frontier cells forming the virtual trajectory.
    """
    total = 0.0
    for qi, frontier in enumerate(frontiers):
        if not frontier:
            return INFINITY  # no unseen trajectory can match q_i at all
        # The virtual trajectory's point match, via the kernel set-cover
        # (identical values to a PointMatchTable fed the same entries;
        # cells without overlap carry an empty mask, which it skips).
        entries = [
            (mdist, bitmaps.overlap_mask(qi, level, code))
            for mdist, level, code in frontier.nearest(m)
        ]
        cover = min_cover_cost(entries, len(bitmaps.activities[qi]))
        contribution = min(cover, frontier.mth_distance(m))
        if contribution == INFINITY:
            return INFINITY
        total += contribution
    return total


def beats_unseen(
    threshold: float, retriever, m: int, exact: Callable[..., float] = lower_bound_distance
) -> bool:
    """``threshold < lower_bound_distance(retriever.frontiers(),
    retriever.bitmaps, m)`` — Algorithm 1's termination test against the
    queue of a :class:`~repro.core.pipeline.CandidateRetriever` — deciding
    from ``Σ d_1`` / ``Σ d_m`` where they suffice (see the module notes).

    *exact* is the bound called for the undecided case; the engine passes
    its own module-level ``lower_bound_distance`` so that wrapping that
    name (as the end-to-end benchmark's tracer does) times every exact run.
    """
    if threshold == INFINITY:
        return False
    sums = retriever.queue_sums(m)
    if sums is None:
        return True  # D_lb = +inf, and threshold is finite
    low, high = sums
    return threshold < low or (
        threshold < high and threshold < exact(retriever.frontiers(), retriever.bitmaps, m)
    )
