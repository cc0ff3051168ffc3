"""The staged query pipeline: retrieval → validation → scoring.

Algorithm 1's loop body is factored into three explicit, composable
stages, each stateless apart from what it reads from the index and writes
into the per-query :class:`~repro.core.context.ExecutionContext`:

* :class:`CandidateRetriever` — the best-first priority queue over the
  HICL hierarchy and the leaf ITL lists (Section V-A).  One instance per
  query: it owns the walk — heap, which is also the per-query-point
  frontiers that feed Algorithm 2, and seen-row bitmap, both in C
  (``repro/native/gat.c``) — and loads the disk-resident HICL rows the
  walk asks for.  It hands out candidates as **rows** of the APL array
  store.
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
mask for the round from one C pass over the APL image (section (d) of
``repro/native/gat.c``) — TAS an interval test, APL "no key lookup
missed", MIB a min / max over first / last positions — and the
``[candidates, |Q.Φ|]`` lookup the APL filter computes (also C: a binary
search inside each row's key range, which writes the coverage mask
beside it) rides along to the MIB filter and to block assembly.  The
entries read the image and the query through their handles
(:attr:`~repro.index.gat.apl.APLArrays.handle`,
:attr:`~repro.core.kernels.QueryKernel.handle`).  The APL filter's I/O is
one ``fetch_many`` per round before its pass: a touch and an insert of
the C residency list and one grouped disk read.  Counters and counted reads are those of a
candidate-by-candidate walk of the chain (the oracle in
``tests/property/object_chain_oracle.py``; the NumPy masks the C passes
replaced are ``tests/property/numpy_round_oracle.py``).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.core.context import ExecutionContext, SearchStats
from repro.core.match import INFINITY
from repro.core.query import Query
from repro.index.gat.apl import APLStore, PostingRound
from repro.index.gat.index import GATIndex
from repro.index.gat.tas import SketchTable
from repro.model.trajectory import ActivityTrajectory
from repro.native import ffi, lib
from repro.storage.cache import RowLRU


# ----------------------------------------------------------------------
# Stage 1 — candidate retrieval (Section V-A)
# ----------------------------------------------------------------------
class CandidateRetriever:
    """Best-first traversal state for one query.

    A single priority queue holds ``(mdist, tick)``-keyed entries of
    ``(level, cell, query-point index, cx, cy)`` across all query points;
    popping a non-leaf cell expands only the children containing at least
    one of that query point's activities, popping a leaf harvests its ITL
    lists.  Work counters go to the per-query *stats*, never to shared
    state.

    The walk runs in C (``gat_walk_run`` in ``repro/native/gat.c``).  A
    child expansion reads one nibble of ``q_i``'s HICL union at the child
    level — the OR of ``q_i.Φ``'s byte rows, made on the level's first
    expansion — and computes the child's ``dx`` / ``dy`` from the grid's
    column and row extents (:meth:`HierarchicalGrid.extents`) with
    :func:`~repro.geometry.primitives.min_dist_to_box`'s comparisons,
    combined the way it combines them — with a port of ``math.hypot`` — so
    MINDIST, heap order, ``cells_popped`` and ``rounds`` are bit for bit
    those of the Python walk kept in ``tests/property/python_walk_oracle.py``.
    An in-memory level's rows come from the HICL publication the query
    took (:attr:`HICL.levels`).  A disk-resident level suspends the walk on
    its first expansion: it returns here, :meth:`_load_rows` fetches
    ``q_i``'s rows through :meth:`HICL.bitmap` and its cache — so counted
    HICL reads land where and in the order they always did — and the walk
    resumes.  The frontier of ``q_i`` that feeds Algorithm 2 is the queue's
    entries carrying ``qi``: :meth:`queue_sums` reads its two cheap bounds
    in C, :func:`~repro.core.lower_bound.lower_bound_distance` the exact
    one.

    The HICL rows, the ITL arrays, the ``seen`` row bitmap and the
    harvested (leaf, activity) bitmap are taken when the query starts: an
    insert publishes new HICL and ITL arrays, and this query keeps reading
    the old ones.
    """

    __slots__ = ("index", "query", "stats", "activities", "exhausted", "walk", "_n_rows", "_keep")

    def __init__(self, index: GATIndex, query: Query, stats: SearchStats) -> None:
        self.index = index
        self.query = query
        self.stats = stats
        levels = index.hicl.levels
        keys, offsets, rows, self._n_rows = index.itl.arrays
        #: Per query point, ``q_i.Φ`` in a fixed order: bit ``j`` of an
        #: overlap mask stands for ``activities[qi][j]``.
        acts = self.activities = [tuple(q.activities) for q in query]
        walk = lib.gat_walk_new(len(query), index.grid.depth)
        if walk == ffi.NULL:
            raise MemoryError("best-first walk")
        walk = self.walk = ffi.gc(walk, lib.gat_walk_free)
        walk.n_keys = len(keys)
        # Everything the walk points into, kept alive with it (disk rows join on load).
        self._keep = [
            levels,
            ffi.new("double[]", [c for q in query for c in q.coord]),
            ffi.from_buffer("int64_t[]", keys),
            ffi.from_buffer("int64_t[]", offsets),
            ffi.from_buffer("int64_t[]", rows),
            ffi.new("int64_t[]", [a for point in acts for a in point]),
            ffi.new("int64_t[]", list(itertools.accumulate(map(len, acts), initial=0))),
            ffi.new("uint8_t[]", (len(keys) + 7) >> 3),  # harvested (leaf, activity) lists
            ffi.new("uint8_t[]", (self._n_rows + 7) >> 3),  # rows handed out
            ffi.new("int64_t[]", self._n_rows),  # ... in the order they were
        ]
        walk.levels = levels.handle
        (walk.qxy, walk.keys, walk.offsets, walk.rows, walk.acts, walk.act_start,
         walk.done, walk.seen, walk.out) = self._keep[1:]
        # The level-1 cells: a zero-batch walk expands each query point's root
        # (level 0, code 0, cell (0, 0)), q_0's first, and pops nothing.
        self.retrieve(0)

    def _load_rows(self, qi: int, level: int) -> None:
        """Give the walk ``q_i``'s rows at the disk-resident *level*, one per
        activity back to back, each through the HICL cache (a counted read
        on a miss)."""
        hicl, stats = self.index.hicl, self.stats
        given = ffi.from_buffer(
            "uint8_t[]", b"".join([hicl.bitmap(a, level, stats) for a in self.activities[qi]])
        )
        self._keep.append(given)
        self.walk.tables[qi * (self.index.grid.depth + 1) + level].given = given

    def queue_top_mdist(self) -> float:
        walk = self.walk
        return walk.heap[0].mdist if walk.size else INFINITY

    def queue_sums(self, m: int) -> Optional[Tuple[float, float]]:
        """``(Σ d_1, Σ d_m)`` over the query points in query order — each
        point's nearest queued ``mdist`` and its ``m``-th (``inf`` below
        ``m`` entries) — or ``None`` when some point has nothing queued."""
        sums = ffi.new("double[2]")
        status = lib.gat_walk_sums(self.walk, m, sums)
        if status < 0:
            raise MemoryError("best-first walk")
        return None if status else (sums[0], sums[1])

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
        walk = self.walk
        start, popped, leaves = walk.n_out, walk.popped, walk.leaves
        limit = start + min(batch, self._n_rows + 1)  # past every row there is
        while status := lib.gat_walk_run(walk, limit, stop_mdist):
            if status < 0:
                raise MemoryError("best-first walk")
            self._load_rows(walk.need_qi, walk.need_level)
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
        return self.sketches.covers_all(candidates)


class APLFilter:
    """Exact coverage check against the trajectories' Activity Posting
    Lists — one counted disk read per candidate reaching this filter,
    skipped when the record is resident in the engine's LRU (Section V-C).

    The reads of a whole round go through
    :meth:`~repro.index.gat.apl.APLStore.fetch_many` — one touch of the
    residency LRU in candidate order, one grouped simulated-disk read of
    the misses — and coverage is "no query activity missed the key
    lookup", which the lookup pass writes beside it.
    """

    stat_field = "apl_pruned"
    __slots__ = ("apl", "cache")

    def __init__(self, apl: APLStore, cache: Optional[RowLRU] = None) -> None:
        self.apl = apl
        self.cache = cache

    def admits(self, ctx: ExecutionContext, candidates: PostingRound):
        hits, lookups = self.apl.fetch_many(candidates, self.cache)
        ctx.stats.apl_cache_hits += hits
        ctx.stats.apl_cache_lookups += lookups
        return candidates.covered()


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
        return candidates.mib()


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
        survivors = self.apl.round(rows, ctx.query_kernel)
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
        if ctx.order_sensitive:
            return ctx.evaluator.dmom(
                ctx.query, trajectory, ctx.threshold(), check_order=False
            )
        return ctx.evaluator.dmm(ctx.query, trajectory)

    def score_batch(self, ctx: ExecutionContext, candidates: PostingRound) -> List[float]:
        """Score one validation round's admitted candidates in a single
        block-kernel call (``kernel='block'``), in candidate order.

        Each candidate bumps ``validated``, as in :meth:`score`.  The
        block is gathered from the candidates' row ranges of the APL
        image through the lookup validation already computed — the
        counted read each record cost there is the candidate's only one.
        The running k-th threshold is read once at round start and passed
        to both queries' covers, each of which lowers it, candidate by
        candidate, to the k-th smallest value of its ranked metric the round
        has scored so far.  ATSQ's :func:`~repro.core.kernels.block_dmm`
        stops evaluating a candidate's rows once their partial ``Dmm``
        exceeds it.  OATSQ's :func:`~repro.core.kernels.block_dmom` gates
        on ``Dmm`` at the round-start threshold, then walks the round's
        survivors cheapest-gate-first and tightens on ``Dmom``.  A
        candidate that comes back ``inf`` rather than as a finite value
        above the threshold is one the top-k collector would reject anyway
        (it only tightens between round start and the offers, and k of the
        round's candidates beat it), and OATSQ's visiting order differs from
        the per-candidate loop's — rankings and counters are identical (the
        engine parity suite pins this down).
        """
        ctx.stats.validated += len(candidates)
        if ctx.order_sensitive:
            return ctx.evaluator.dmom_batch(ctx.query, candidates, ctx.threshold(), k=ctx.k)
        return ctx.evaluator.dmm_batch(ctx.query, candidates, ctx.threshold(), k=ctx.k)
