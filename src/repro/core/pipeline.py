"""The staged query pipeline: retrieval → validation → scoring.

Algorithm 1's loop body is factored into three explicit, composable
stages, each stateless apart from what it reads from the index and writes
into the per-query :class:`~repro.core.context.ExecutionContext`:

* :class:`CandidateRetriever` — the best-first priority queue over the
  HICL hierarchy and the leaf ITL lists (Section V-A).  One instance per
  query: it owns the heap — which is also the per-query-point frontiers
  that feed Algorithm 2 — the query's HICL bitmaps, and the seen-set.
* :class:`ValidationStage` — an ordered chain of candidate filters, each
  with its own pruning counter on :class:`SearchStats`.  The paper's
  chain is TAS (cheap superset sketch, Section V-C) → APL (exact, one
  counted disk read) → MIB order-feasibility for OATSQ (Section VI-B).
  Ablations compose a different chain instead of branching on flags.
* :class:`ScoringStage` — the evaluator dispatch: ``Dmm`` (Algorithm 3)
  for ATSQ, ``Dmom`` (Algorithm 4, threshold-pruned) for OATSQ.

Filters communicate through the per-candidate :class:`Candidate` record
so expensive loads happen once: the APL filter leaves the fetched posting
lists on the record, the MIB filter the materialised trajectory, and the
scoring stage reuses both.

Validation runs one retrieval round at a time
(:meth:`ValidationStage.admit_batch`): candidates flow filter-by-filter
so a filter exposing a ``prefetch`` hook can batch its I/O — the APL
filter pulls the whole round's posting lists in a single
``fetch_many``.  Counters and counted reads are those of a
candidate-by-candidate walk of the chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.context import ExecutionContext, SearchStats
from repro.core.lower_bound import Frontier
from repro.core.match import INFINITY
from repro.core.order_match import order_feasible
from repro.core.query import Query
from repro.index.gat.apl import APLStore, PostingLists
from repro.index.gat.hicl import QueryBitmaps
from repro.index.gat.index import GATIndex
from repro.index.gat.tas import TrajectorySketch
from repro.model.database import TrajectoryDatabase
from repro.model.trajectory import ActivityTrajectory
from repro.storage.cache import LRUCache


@dataclass(slots=True)
class Candidate:
    """One retrieved trajectory flowing through the validation chain.

    Filters attach what they had to load so later stages don't pay twice.
    """

    trajectory_id: int
    posting: Optional[PostingLists] = None
    trajectory: Optional[ActivityTrajectory] = None


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

    The per-pop work is a few integer and float operations.  The child
    expansion is one nibble of the query's HICL view (:attr:`bitmaps`, a
    :class:`~repro.index.gat.hicl.QueryBitmaps` — the bitmaps of ``q.Φ``
    ORed once per (query point, level)); each surviving child's MINDIST
    comes from the cell coordinates the entry carries
    (:meth:`GridLevel.min_dist_cell`, bit-identical to the ``Rect`` path,
    so heap order, ``cells_popped`` and ``rounds`` are those of the
    per-cell ``frozenset`` walk kept in ``tests/property`` as the oracle).
    The frontier of ``q_i`` that feeds Algorithm 2 is exactly the queue's
    entries carrying ``qi``; :meth:`frontiers` reads it off the heap once
    per round.  Counted HICL reads per query equal the oracle's as long
    as the HICL list cache does not evict inside a query (see
    :class:`~repro.index.gat.hicl.QueryBitmaps`).
    """

    __slots__ = ("index", "query", "stats", "heap", "bitmaps", "seen", "exhausted", "_tick")

    def __init__(self, index: GATIndex, query: Query, stats: SearchStats) -> None:
        self.index = index
        self.query = query
        self.stats = stats
        self.heap: List[Tuple[float, int, int, int, int, int, int]] = []
        self.bitmaps = QueryBitmaps(index.hicl, query)
        self.seen: Set[int] = set()
        self.exhausted = False
        self._tick = itertools.count()
        for qi in range(len(query)):
            self._expand(qi, 1, 0, 0, 0)  # the level-1 cells: children of the root

    def _expand(self, qi: int, level: int, parent: int, px: int, py: int) -> None:
        """Push the *level* cells under cell *parent* ``(px, py)`` that
        contain at least one of ``q_i``'s activities."""
        grid_level = self.index.grid.levels[level - 1]
        coord = self.query[qi].coord
        base, cx0, cy0 = parent << 2, px << 1, py << 1
        for j, dx, dy in _NIBBLE_CHILDREN[self.bitmaps.child_nibble(qi, level, parent)]:
            cx, cy = cx0 + dx, cy0 + dy
            mdist = grid_level.min_dist_cell(coord, cx, cy)
            heappush(self.heap, (mdist, next(self._tick), level, base + j, qi, cx, cy))

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
        have been collected (Section V-A), or the queue runs dry.

        *stop_mdist* bounds the expansion: popping stops (entries stay
        queued) once the queue top's MINDIST exceeds it.  Exact whenever
        the bound is a current top-k threshold: a trajectory with
        ``Dmm ≤ τ`` has, for every query point, a matching point whose
        cell chain carries ``mdist ≤ Dmm ≤ τ``, so its discovery entries
        sort *before* anything the bound skips.  The sharded fan-out
        passes the cross-shard merged k-th here; the single-index path
        leaves it at ``inf`` (the paper's loop shape, untouched).
        """
        heap = self.heap
        itl = self.index.itl
        depth = self.index.grid.depth
        stats = self.stats
        new_candidates: List[int] = []

        while heap and len(new_candidates) < batch:
            if heap[0][0] > stop_mdist:
                break
            _mdist, _tick, level, code, qi, cx, cy = heappop(heap)
            stats.cells_popped += 1
            if level < depth:
                self._expand(qi, level + 1, code, cx, cy)
            else:
                stats.leaf_cells_visited += 1
                for tid in itl.trajectories_with_any(code, self.query[qi].activities):
                    if tid not in self.seen:
                        self.seen.add(tid)
                        new_candidates.append(tid)

        if not heap:
            self.exhausted = True
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

    def __init__(self, sketches: Dict[int, TrajectorySketch]) -> None:
        self.sketches = sketches

    def admits(self, ctx: ExecutionContext, candidate: Candidate) -> bool:
        return self.sketches[candidate.trajectory_id].covers_all(ctx.query_activities)


class APLFilter:
    """Exact coverage check against the trajectory's Activity Posting
    Lists — one counted disk read, served from the engine's LRU when the
    trajectory is hot (Section V-C).

    Implements the batched-I/O hook: :meth:`prefetch` pulls the posting
    lists of a whole validation round through
    :meth:`~repro.index.gat.apl.APLStore.fetch_many` — one cache pass,
    one grouped simulated-disk read — before the per-candidate checks
    run: one counted fetch per candidate reaching this filter.
    """

    stat_field = "apl_pruned"
    __slots__ = ("apl", "cache")

    def __init__(self, apl: APLStore, cache: Optional[LRUCache] = None) -> None:
        self.apl = apl
        self.cache = cache

    def prefetch(self, ctx: ExecutionContext, candidates: Sequence[Candidate]) -> None:
        tids = [c.trajectory_id for c in candidates if c.posting is None]
        if not tids:
            return
        fetched = self.apl.fetch_many(tids, self.cache)
        for c in candidates:
            if c.posting is None:
                c.posting = fetched[c.trajectory_id]

    def admits(self, ctx: ExecutionContext, candidate: Candidate) -> bool:
        return APLStore.covers_query(candidate.posting, ctx.query_activities)


class MIBFilter:
    """Maximum-index-based order feasibility for OATSQ (Section VI-B):
    reject candidates that cannot match the query points in order."""

    stat_field = "mib_pruned"
    __slots__ = ("db",)

    def __init__(self, db: TrajectoryDatabase) -> None:
        self.db = db

    def admits(self, ctx: ExecutionContext, candidate: Candidate) -> bool:
        candidate.trajectory = self.db.get(candidate.trajectory_id)
        return order_feasible(candidate.trajectory, ctx.query)


class ValidationStage:
    """An ordered filter chain; the first rejecting filter's counter on
    ``ctx.stats`` is bumped and the candidate is dropped.

    Filter protocol: ``admits(ctx, candidate) -> bool``, an optional
    ``prefetch(ctx, candidates)`` run on the round's survivors before the
    filter's checks, and an optional ``stat_field`` naming the
    :class:`SearchStats` counter to bump on rejection (a custom filter
    without one simply goes uncounted).
    """

    __slots__ = ("filters",)

    def __init__(self, filters: Sequence) -> None:
        self.filters = tuple(filters)

    def admit_batch(
        self, ctx: ExecutionContext, candidates: Sequence[Candidate]
    ) -> List[Candidate]:
        """Run one retrieval round's candidates through the chain filter by
        filter, preserving candidate order.

        The same candidates reach each filter as in a candidate-by-
        candidate walk, so every pruning counter lands on the same value —
        but evaluating a whole round against one filter at a time lets a
        filter exposing ``prefetch`` (the APL filter) batch its I/O for
        the round.
        """
        survivors = list(candidates)
        for f in self.filters:
            if not survivors:
                break
            hook = getattr(f, "prefetch", None)
            if hook is not None:
                hook(ctx, survivors)
            kept = [candidate for candidate in survivors if f.admits(ctx, candidate)]
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

    __slots__ = ("db",)

    def __init__(self, db: TrajectoryDatabase) -> None:
        self.db = db

    def score(self, ctx: ExecutionContext, candidate: Candidate) -> float:
        trajectory = candidate.trajectory
        if trajectory is None:
            trajectory = candidate.trajectory = self.db.get(candidate.trajectory_id)
        ctx.stats.validated += 1
        ctx.stats.distance_computations += 1
        if ctx.order_sensitive:
            return ctx.evaluator.dmom(
                ctx.query, trajectory, ctx.threshold(), check_order=False
            )
        return ctx.evaluator.dmm(ctx.query, trajectory)

    def score_batch(
        self, ctx: ExecutionContext, candidates: Sequence[Candidate]
    ) -> List[float]:
        """Score one validation round's admitted candidates in a single
        block-kernel call (``kernel='block'``), in candidate order.

        Each candidate bumps the same ``validated`` / work counters as
        :meth:`score`.  The block is assembled from the trajectories'
        in-memory activity columns; the APL record the filter fetched
        rides along on the item but is not read again — it served
        validation's coverage check, and its counted read is the
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
        items = []
        for candidate in candidates:
            trajectory = candidate.trajectory
            if trajectory is None:
                trajectory = candidate.trajectory = self.db.get(
                    candidate.trajectory_id
                )
            ctx.stats.validated += 1
            ctx.stats.distance_computations += 1
            items.append((trajectory, candidate.posting))
        if ctx.order_sensitive:
            return ctx.evaluator.dmom_batch(
                ctx.query, items, ctx.threshold(), check_order=False, k=ctx.k
            )
        return ctx.evaluator.dmm_batch(ctx.query, items)
