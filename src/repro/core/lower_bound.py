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

Where it runs.  ``q_i``'s frontier is the best-first queue's entries
carrying ``q_i``, so the bound is read off the C walk's heap
(``gat_walk_bound`` in ``repro/native/gat.c``): per query point the ``m``
nearest entries in frontier order ``(mdist, level, code)``, each cell's
overlap with ``q_i.Φ`` read from the HICL rows the walk expanded it from,
the min-cost cover folded over them in that order (the additions a
:class:`~repro.core.match.PointMatchTable` fed the same entries performs),
the cap, and the sum in query-point order.  The Python frontier and
min-cover it replaced are the oracle in ``tests/property/bound_oracle.py``.

When Algorithm 2 runs.  Algorithm 1 reads ``D_lb`` only through its
termination test ``τ < D_lb`` (``τ`` the current k-th best distance), so
:func:`beats_unseen` answers that test and runs
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

from typing import Callable

from repro.core.match import INFINITY
from repro.native import ffi, lib

#: ``m`` of Algorithm 2 — frontier cells per virtual trajectory, as the
#: engine runs it.  :func:`lower_bound_distance` / :func:`beats_unseen`
#: take ``m`` as an argument so the property tests can vary it.
LB_CELLS = 8


def lower_bound_distance(retriever, m: int) -> float:
    """``D_lb`` — Algorithm 2 summed over all query points, from the queue
    of a :class:`~repro.core.pipeline.CandidateRetriever` and the ``m``
    nearest frontier cells of each point (see the module notes)."""
    bound = ffi.new("double *")
    if lib.gat_walk_bound(retriever.walk, m, bound) < 0:
        raise MemoryError("Algorithm 2's bound")
    return bound[0]


def beats_unseen(
    threshold: float, retriever, m: int, exact: Callable[..., float] = lower_bound_distance
) -> bool:
    """``threshold < lower_bound_distance(retriever, m)`` — Algorithm 1's
    termination test against the queue of a
    :class:`~repro.core.pipeline.CandidateRetriever` — deciding from
    ``Σ d_1`` / ``Σ d_m`` where they suffice (see the module notes).

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
        threshold < high and threshold < exact(retriever, m)
    )
