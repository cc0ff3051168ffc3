"""The staged query pipeline: retrieval → validation → scoring.

Algorithm 1's loop body is factored into three explicit, composable
stages, each stateless apart from what it reads from the index and writes
into the per-query :class:`~repro.core.context.ExecutionContext`:

* :class:`CandidateRetriever` — the best-first priority queue over the
  HICL hierarchy and the leaf ITL lists (Section V-A).  One instance per
  query: it owns the walk — heap, which is also the per-query-point
  frontiers that feed Algorithm 2, and seen-row bitmap, both in C
  (``repro/native/gat.c``) — and the query's HICL bitmaps, which it loads
  for the walk level by level.  It hands out candidates as **rows** of the
  APL array store.
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import ExecutionContext, SearchStats
from repro.core.lower_bound import Frontier
from repro.core.match import INFINITY
from repro.core.query import Query
from repro.index.gat.apl import APLStore, PostingRound
from repro.index.gat.hicl import QueryBitmaps
from repro.index.gat.index import GATIndex
from repro.index.gat.tas import SketchTable
from repro.model.trajectory import ActivityTrajectory
from repro.native import ffi, lib
from repro.storage.cache import LRUCache


# ----------------------------------------------------------------------
# Stage 1 — candidate retrieval (Section V-A)
# ----------------------------------------------------------------------
#: The C walk's heap entry as a NumPy record, for reading the queue in place.
_ENTRY = np.dtype(
    [("mdist", "f8"), ("tick", "i8"), ("code", "i8"),
     ("level", "i4"), ("qi", "i4"), ("cx", "i4"), ("cy", "i4")]
)
assert _ENTRY.itemsize == ffi.sizeof("gat_entry")


class CandidateRetriever:
    """Best-first traversal state for one query.

    A single priority queue holds ``(mdist, tick)``-keyed entries of
    ``(level, cell, query-point index, cx, cy)`` across all query points;
    popping a non-leaf cell expands only the children containing at least
    one of that query point's activities, popping a leaf harvests its ITL
    lists.  Work counters go to the per-query *stats*, never to shared
    state.

    The walk runs in C (``gat_walk_run`` in ``repro/native/gat.c``).  A
    child expansion reads one nibble of the query's HICL union at the
    child level (:class:`~repro.index.gat.hicl.QueryBitmaps`: ``q.Φ``'s
    bitmaps ORed once per query point and level) and, per surviving child,
    two entries of that (query point, level)'s axis gap tables
    (:meth:`GridLevel.axis_gaps`), combined the way
    :func:`~repro.geometry.primitives.min_dist_to_box` combines them — with
    a port of ``math.hypot`` — so MINDIST, heap order, ``cells_popped`` and
    ``rounds`` are bit for bit those of the Python walk kept in
    ``tests/property/python_walk_oracle.py``.  A level's tables are built
    on its first expansion: the walk returns here, :meth:`_load_tables`
    loads the union through the view's own load path — so HICL reads land
    exactly where they did — and the walk resumes.  The frontier of
    ``q_i`` that feeds Algorithm 2 is the queue's entries carrying ``qi``:
    :meth:`queue_sums` reads its two cheap bounds in C, :meth:`frontiers`
    reads it whole when the exact bound is needed.

    The ITL arrays, the ``seen`` row bitmap and the harvested (leaf,
    activity) bitmap are taken when the query starts: an insert publishes
    new ITL arrays, and this query keeps reading the old ones.
    """

    __slots__ = ("index", "query", "stats", "bitmaps", "exhausted", "_walk", "_n_rows", "_keep")

    def __init__(self, index: GATIndex, query: Query, stats: SearchStats) -> None:
        self.index = index
        self.query = query
        self.stats = stats
        self.bitmaps = QueryBitmaps(index.hicl, query, stats)
        keys, offsets, rows, self._n_rows = index.itl.arrays
        acts = self.bitmaps.activities
        walk = lib.gat_walk_new()
        if walk == ffi.NULL:
            raise MemoryError("best-first walk")
        walk = self._walk = ffi.gc(walk, lib.gat_walk_free)
        walk.n_points, walk.depth, walk.n_keys = len(query), index.grid.depth, len(keys)
        # Everything the walk points into, kept alive with it (tables join on load).
        self._keep = [
            ffi.new("gat_table[]", len(query) * (index.grid.depth + 1)),
            ffi.from_buffer("int64_t[]", keys),
            ffi.from_buffer("int64_t[]", offsets),
            ffi.from_buffer("int64_t[]", rows),
            ffi.new("int64_t[]", [a for point in acts for a in point]),
            ffi.new("int64_t[]", list(itertools.accumulate(map(len, acts), initial=0))),
            ffi.new("uint8_t[]", (len(keys) + 7) >> 3),  # harvested (leaf, activity) lists
            ffi.new("uint8_t[]", (self._n_rows + 7) >> 3),  # rows handed out
            ffi.new("int64_t[]", self._n_rows),  # ... in the order they were
        ]
        (walk.tables, walk.keys, walk.offsets, walk.rows, walk.acts, walk.act_start,
         walk.done, walk.seen, walk.out) = self._keep
        # The level-1 cells: a zero-batch walk expands each query point's root
        # (level 0, code 0, cell (0, 0)), q_0's first, and pops nothing.
        self.retrieve(0)

    def _load_tables(self, qi: int, level: int) -> None:
        """Give the walk ``q_i``'s HICL union bytes, column gaps and row gaps
        at *level*.  The union bytes come through the view's own load path,
        so its HICL reads land exactly when a ``child_nibble`` probe would
        make them."""
        bitmaps = self.bitmaps
        union = (bitmaps._maps[qi][level] or bitmaps._load(qi, level))[0]
        gx, gy = self.index.grid.levels[level - 1].axis_gaps(self.query[qi].coord)
        buffers = (ffi.from_buffer("uint8_t[]", union), ffi.new("double[]", gx), ffi.new("double[]", gy))
        self._keep.append(buffers)
        table = self._walk.tables[qi * (self._walk.depth + 1) + level]
        table.bits, table.gx, table.gy = buffers

    def queue(self) -> List[tuple]:
        """The queued entries, ``(mdist, tick, code, level, qi, cx, cy)``, in
        heap order."""
        walk = self._walk
        if not walk.size:
            return []
        heap = ffi.buffer(walk.heap, walk.size * _ENTRY.itemsize)
        return np.frombuffer(heap, dtype=_ENTRY).tolist()

    def queue_top_mdist(self) -> float:
        walk = self._walk
        return walk.heap[0].mdist if walk.size else INFINITY

    def queue_sums(self, m: int) -> Optional[Tuple[float, float]]:
        """``(Σ d_1, Σ d_m)`` over the query points in query order — each
        point's nearest queued ``mdist`` and its ``m``-th (``inf`` below
        ``m`` entries) — or ``None`` when some point has nothing queued."""
        sums = ffi.new("double[2]")
        status = lib.gat_walk_sums(self._walk, m, sums)
        if status < 0:
            raise MemoryError("best-first walk")
        return None if status else (sums[0], sums[1])

    def frontiers(self) -> List[Frontier]:
        """Each query point's not-yet-visited cells, read off the queue."""
        cells: List[list] = [[] for _ in self.query]
        for mdist, _tick, code, level, qi, _cx, _cy in self.queue():
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

        Each ITL list is read once per query (a harvested-list bitmap), and
        a row is handed out once (a ``seen`` row bitmap): another query
        point reaching the same (leaf, activity) — two visits in three on
        ``cpu_heavy`` — skips it on one bit.

        *stop_mdist* bounds the expansion: popping stops (entries stay
        queued) once the queue top's MINDIST exceeds it.  Exact whenever
        the bound is a current top-k threshold: a trajectory with
        ``Dmm ≤ τ`` has, for every query point, a matching point whose
        cell chain carries ``mdist ≤ Dmm ≤ τ``, so its discovery entries
        sort *before* anything the bound skips.  The sharded fan-out
        passes the cross-shard merged k-th here; the single-index path
        leaves it at ``inf`` (the paper's loop shape, untouched).
        """
        walk = self._walk
        start, popped, leaves = walk.n_out, walk.popped, walk.leaves
        limit = start + min(batch, self._n_rows + 1)  # past every row there is
        while status := lib.gat_walk_run(walk, limit, stop_mdist):
            if status < 0:
                raise MemoryError("best-first walk")
            self._load_tables(walk.need_qi, walk.need_level)
        self.exhausted = not walk.size
        stats = self.stats
        stats.cells_popped += walk.popped - popped
        stats.leaf_cells_visited += walk.leaves - leaves
        stats.candidates_retrieved += walk.n_out - start
        return ffi.unpack(walk.out + start, walk.n_out - start)


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
        hits, lookups = self.apl.fetch_many(candidates.ids.tolist(), self.cache)
        ctx.stats.apl_cache_hits += hits
        ctx.stats.apl_cache_lookups += lookups
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
