"""The staged query pipeline: retrieval → validation → scoring.

Algorithm 1's loop body is factored into three explicit, composable
stages, each stateless apart from what it reads from the index and writes
into the per-query :class:`~repro.core.context.ExecutionContext`:

* :class:`CandidateRetriever` — the best-first priority queue over the
  HICL hierarchy and the leaf ITL lists (Section V-A).  One instance per
  query: it owns the heap — which is also the per-query-point frontiers
  that feed Algorithm 2 — the query's HICL bitmaps, and the seen-set.  It
  hands out candidates as **rows** of the APL array store.
* :class:`ValidationStage` — an ordered chain of candidate filters, each
  with its own pruning counter on :class:`SearchStats`.  The paper's
  chain is TAS (cheap superset sketch, Section V-C) → APL (exact, one
  counted disk read) → MIB order-feasibility for OATSQ (Section VI-B).
  Ablations compose a different chain instead of branching on flags.
* :class:`ScoringStage` — the evaluator dispatch: ``Dmm`` (Algorithm 3)
  for ATSQ, ``Dmom`` (Algorithm 4, threshold-pruned) for OATSQ.

Validation runs one retrieval round at a time
(:meth:`ValidationStage.admit_batch`) over those rows, as they come
(:class:`~repro.index.gat.apl.PostingRound`): each filter answers one bool
mask for the round — TAS a broadcast interval test, APL a key lookup, MIB
a reduction over first / last positions — and the ``[candidates, |Q.Φ|]``
lookup the APL filter computes rides along to the MIB filter and to block
assembly.  The APL filter's I/O is one ``fetch_many`` per round.  Counters
and counted reads are those of a candidate-by-candidate walk of the chain
(the oracle in ``tests/property/object_chain_oracle.py``).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import hypot
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.context import ExecutionContext, SearchStats
from repro.core.lower_bound import Frontier
from repro.core.match import INFINITY
from repro.core.query import Query
from repro.index.gat.apl import ACTIVITY_BITS, APLStore, PostingRound
from repro.index.gat.hicl import QueryBitmaps
from repro.index.gat.index import GATIndex
from repro.index.gat.tas import SketchTable
from repro.model.trajectory import ActivityTrajectory
from repro.storage.cache import LRUCache


# ----------------------------------------------------------------------
# Stage 1 — candidate retrieval (Section V-A)
# ----------------------------------------------------------------------
#: Per child-occupancy nibble, ``(j, dx, dy)`` of its set bits, ascending: child
#: ``4·code + j`` of cell ``(cx, cy)`` is cell ``(2cx + dx, 2cy + dy)`` one level down.
_NIBBLE_CHILDREN = tuple(
    tuple((j, j & 1, j >> 1) for j in range(4) if n >> j & 1) for n in range(16)
)


class CandidateRetriever:
    """Best-first traversal state for one query.

    A single priority queue holds ``(mdist, tiebreak, level, cell,
    query-point index, cx, cy)`` entries across all query points; popping
    a non-leaf cell expands only the children containing at least one of
    that query point's activities, popping a leaf harvests its ITL lists.
    Work counters go to the per-query *stats*, never to shared state.

    The whole walk runs in :meth:`retrieve`'s one frame.  A child
    expansion reads one nibble of the query's HICL view (:attr:`bitmaps`,
    a :class:`~repro.index.gat.hicl.QueryBitmaps`: ``q.Φ``'s bitmaps ORed
    once per query point and level) and, per surviving child, two entries
    of that (query point, level)'s axis gap tables
    (:meth:`GridLevel.axis_gaps`, built on the level's first expansion)
    indexed by the cell coordinates the entry carries, combined the way
    :func:`~repro.geometry.primitives.min_dist_to_box` combines them —
    bit-identical to the ``Rect`` path, so heap order, ``cells_popped``
    and ``rounds`` are those of the per-cell ``frozenset`` walk kept in
    ``tests/property`` as the oracle (counted HICL reads too, unless the
    list cache evicts inside a query).  The frontier of ``q_i`` that feeds
    Algorithm 2 is the queue's entries carrying ``qi``; :meth:`frontiers`
    reads it off the heap when the termination test needs the exact bound.
    """

    __slots__ = (
        "index", "query", "stats", "heap", "bitmaps", "seen", "exhausted", "_tick", "_done",
        "_tables", "_parents",
    )

    def __init__(self, index: GATIndex, query: Query, stats: SearchStats) -> None:
        self.index = index
        self.query = query
        self.stats = stats
        self.heap: List[Tuple[float, int, int, int, int, int, int]] = []
        self.bitmaps = QueryBitmaps(index.hicl, query)
        self.seen: Set[int] = set()  # APL rows handed out so far
        # Per query point: (activity, leaf codes whose list of it was harvested).
        done: Dict[int, Set[int]] = {}
        self._done = [
            tuple((a, done.setdefault(a, set())) for a in acts) for acts in self.bitmaps.activities
        ]
        self._tables: List[list] = [[None] * (index.grid.depth + 1) for _ in query]
        self._tick = itertools.count()
        # The level-1 cells: a zero-batch walk expands each query point's root
        # (level 0, code 0, cell (0, 0)), q_0's first, and pops nothing.
        self._parents = [(qi, 0, 0, 0, 0) for qi in reversed(range(len(query)))]
        self.retrieve(0)

    def _level_tables(self, qi: int, level: int) -> tuple:
        """Build ``_tables[qi][level]``: ``q_i``'s HICL union bytes, column
        gaps and row gaps at *level*.  The union bytes come through the
        view's own load path (read directly, like the ITL's lists in
        :meth:`retrieve`, to keep method calls out of the walk), so its HICL
        reads land exactly when a ``child_nibble`` probe would make them."""
        bitmaps = self.bitmaps
        union = (bitmaps._maps[qi][level] or bitmaps._load(qi, level))[0]
        gaps = self.index.grid.levels[level - 1].axis_gaps(self.query[qi].coord)
        tables = self._tables[qi][level] = (union, *gaps)
        return tables

    def queue_top_mdist(self) -> float:
        return self.heap[0][0] if self.heap else INFINITY

    def frontiers(self) -> List[Frontier]:
        """Each query point's not-yet-visited cells, read off the queue."""
        cells: List[list] = [[] for _ in self.query]
        for mdist, _tick, level, code, qi, _cx, _cy in self.heap:
            cells[qi].append((mdist, level, code))
        return [Frontier(entries) for entries in cells]

    def retrieve(self, batch: int, stop_mdist: float = INFINITY) -> List[int]:
        """Pop cells best-first until ``batch`` *new* candidate trajectories
        have been collected (Section V-A), or the queue runs dry; returns
        their APL **rows** — leaf pops in heap order, ascending within one
        leaf pop.  A round's candidate *set* depends only on which leaves
        were popped, so rankings and every pruning / round counter are
        order-free; the order does decide the APL filter's LRU pass, hence
        counted reads and cache hit rate whenever that LRU evicts — the
        only two order-dependent counts.

        Each ITL list is read once per query: its first visit puts every
        row in ``seen``, so another query point reaching the same (leaf,
        activity) — two visits in three on ``cpu_heavy`` — skips it on a set
        probe.  A first visit is one ``seen.issuperset(list)``; only a leaf
        holding something new (under one in ten) sorts ``union − seen``.

        *stop_mdist* bounds the expansion: popping stops (entries stay
        queued) once the queue top's MINDIST exceeds it.  Exact whenever
        the bound is a current top-k threshold: a trajectory with
        ``Dmm ≤ τ`` has, for every query point, a matching point whose
        cell chain carries ``mdist ≤ Dmm ≤ τ``, so its discovery entries
        sort *before* anything the bound skips.  The sharded fan-out
        passes the cross-shard merged k-th here; the single-index path
        leaves it at ``inf`` (the paper's loop shape, untouched).
        """
        heap, tick, tables, parents = self.heap, self._tick, self._tables, self._parents
        lists = self.index.itl._lists.get  # ITL.rows_with without the call
        harvested = self._done
        depth = self.index.grid.depth
        seen = self.seen
        all_seen = seen.issuperset
        new_candidates: List[int] = []
        popped = leaves = 0

        while True:
            if parents:  # only the roots, on the zero-batch round __init__ runs
                qi, level, code, cx, cy = parents.pop()
            elif heap and len(new_candidates) < batch and heap[0][0] <= stop_mdist:
                _mdist, _tick, level, code, qi, cx, cy = heappop(heap)
                popped += 1
                if level == depth:
                    leaves += 1
                    fresh: Set[int] = set()
                    for activity, done in harvested[qi]:
                        if code not in done:  # else harvested under another query point
                            done.add(code)
                            rows = lists((code << ACTIVITY_BITS) | activity, ())
                            if not all_seen(rows):
                                fresh.update(rows)
                    if fresh:
                        ascending = sorted(fresh - seen)  # ``-=`` would walk all of ``seen``
                        seen.update(ascending)
                        new_candidates += ascending
                    continue
            else:
                break
            level += 1  # push the children holding one of q_i's activities
            union, gx, gy = tables[qi][level] or self._level_tables(qi, level)
            base, cx, cy = code << 2, cx << 1, cy << 1
            for j, dx, dy in _NIBBLE_CHILDREN[(union[code >> 1] >> ((code & 1) << 2)) & 15]:
                x, y = gx[cx + dx], gy[cy + dy]
                mdist = y if x == 0.0 else x if y == 0.0 else hypot(x, y)
                heappush(heap, (mdist, next(tick), level, base + j, qi, cx + dx, cy + dy))

        self.exhausted = not heap
        stats = self.stats
        stats.cells_popped += popped
        stats.leaf_cells_visited += leaves
        stats.candidates_retrieved += len(new_candidates)
        return new_candidates


# ----------------------------------------------------------------------
# Stage 2 — validation filters (Sections V-C, VI-B)
# ----------------------------------------------------------------------
class TASFilter:
    """Trajectory Activity Sketch superset check — cheap, in memory, no
    false dismissals (Section V-C)."""

    stat_field = "tas_pruned"
    __slots__ = ("sketches",)

    def __init__(self, sketches: SketchTable) -> None:
        self.sketches = sketches

    def admits(self, ctx: ExecutionContext, candidates: PostingRound):
        return self.sketches.covers_all(candidates.rows, candidates.activities)


class APLFilter:
    """Exact coverage check against the trajectories' Activity Posting
    Lists — one counted disk read per candidate reaching this filter,
    skipped when the record is resident in the engine's LRU (Section V-C).

    The reads of a whole round go through
    :meth:`~repro.index.gat.apl.APLStore.fetch_many` — one cache pass in
    candidate order, one grouped simulated-disk read — and coverage is
    "no query activity missed the key lookup".
    """

    stat_field = "apl_pruned"
    __slots__ = ("apl", "cache")

    def __init__(self, apl: APLStore, cache: Optional[LRUCache] = None) -> None:
        self.apl = apl
        self.cache = cache

    def admits(self, ctx: ExecutionContext, candidates: PostingRound):
        self.apl.fetch_many(candidates.ids.tolist(), self.cache)
        return (candidates.lookup() != candidates.image.n_keys).all(axis=1)


class MIBFilter:
    """Maximum-index-based order feasibility for OATSQ (Section VI-B):
    reject candidates that cannot match the query points in order.

    ``MIB(q_i)`` is the smallest first / greatest last position over the
    posting lists of ``q_i.Φ`` the candidate has (none → reject); the
    candidate survives when no ``MIB(q_i).lb`` exceeds a later
    ``MIB(q_j).ub``.
    """

    stat_field = "mib_pruned"
    __slots__ = ()

    def admits(self, ctx: ExecutionContext, candidates: PostingRound):
        slots, starts = ctx.point_slots()
        keys = candidates.lookup()[:, slots]
        lb = np.minimum.reduceat(candidates.image.first[keys], starts, axis=1)
        ub = np.maximum.reduceat(candidates.image.last[keys], starts, axis=1)
        # The largest lb before each query point: -1 before the first.
        reached = np.maximum.accumulate(lb, axis=1)
        feasible = (ub >= 0).all(axis=1)
        feasible &= (reached[:, :-1] <= ub[:, 1:]).all(axis=1)
        return feasible


class ValidationStage:
    """An ordered filter chain over the rows of *apl*; every candidate the
    first rejecting filter drops bumps that filter's counter on
    ``ctx.stats``.

    Filter protocol: ``admits(ctx, candidates) -> bool mask`` over a
    :class:`~repro.index.gat.apl.PostingRound`, and an optional
    ``stat_field`` naming the :class:`SearchStats` counter to bump per
    rejection (a custom filter without one simply goes uncounted).
    """

    __slots__ = ("filters", "apl")

    def __init__(self, filters: Sequence, apl: APLStore) -> None:
        self.filters = tuple(filters)
        self.apl = apl

    def admit_batch(self, ctx: ExecutionContext, rows: Sequence[int]) -> PostingRound:
        """Run one retrieval round's candidates (APL rows) through the chain
        filter by filter, preserving candidate order; returns the survivors.

        The same candidates reach each filter as in a candidate-by-
        candidate walk, so every pruning counter and every counted read
        lands on the same value.
        """
        survivors = self.apl.round(rows, ctx.activities)
        for f in self.filters:
            if not len(survivors):
                break
            kept = survivors.keep(f.admits(ctx, survivors))
            stat_field = getattr(f, "stat_field", None)
            if stat_field is not None:
                rejected = len(survivors) - len(kept)
                setattr(ctx.stats, stat_field, getattr(ctx.stats, stat_field) + rejected)
            survivors = kept
        return survivors


# ----------------------------------------------------------------------
# Stage 3 — scoring (Sections V-D, VI-C)
# ----------------------------------------------------------------------
class ScoringStage:
    """Evaluator dispatch for validated candidates.

    OATSQ calls ``dmom`` with ``check_order=False``: in the paper's
    chain the MIB filter already established feasibility, and the DP
    itself still returns ``inf`` for infeasible candidates, so a chain
    composed *without* the MIB filter stays correct — it only loses the
    cheap pre-prune.
    """

    __slots__ = ()

    def score(self, ctx: ExecutionContext, trajectory: ActivityTrajectory) -> float:
        """One candidate through the per-candidate evaluator entries, from
        the object model (``kernel='scalar'``, the oracle)."""
        ctx.stats.validated += 1
        ctx.stats.distance_computations += 1
        if ctx.order_sensitive:
            return ctx.evaluator.dmom(
                ctx.query, trajectory, ctx.threshold(), check_order=False
            )
        return ctx.evaluator.dmm(ctx.query, trajectory)

    def score_batch(self, ctx: ExecutionContext, candidates: PostingRound) -> List[float]:
        """Score one validation round's admitted candidates in a single
        block-kernel call (``kernel='block'``), in candidate order.

        Each candidate bumps the same ``validated`` / work counters as
        :meth:`score`.  The block is gathered from the candidates' row
        ranges of the APL image through the lookup validation already
        computed — the counted read each record cost there is the
        candidate's only one.  OATSQ's running k-th threshold is read once
        at round start and then tightened *inside* the round:
        :func:`~repro.core.kernels.block_dmom` walks the round's survivors
        cheapest-gate-first and lowers the abandonment threshold to the
        k-th smallest ``Dmom`` seen so far, candidate by candidate.  Its
        visiting order differs from the per-candidate loop's, so which
        over-threshold candidates come back ``inf`` rather than as a
        finite value the top-k collector rejects anyway can differ —
        rankings and counters are identical (the engine parity suite pins
        this down).
        """
        ctx.stats.validated += len(candidates)
        ctx.stats.distance_computations += len(candidates)
        if ctx.order_sensitive:
            return ctx.evaluator.dmom_batch(ctx.query, candidates, ctx.threshold(), k=ctx.k)
        return ctx.evaluator.dmm_batch(ctx.query, candidates)
