"""Shared candidate scoring: the code path every searcher funnels through.

Section VII-A of the paper: "the four algorithms only differ in the index
structure and how they retrieve candidates, and they will use the same
algorithms to compute the minimum match distance (Section V-D) and minimum
order-sensitive match distance (Section VI-C)".  :class:`MatchEvaluator` is
that shared tail — GAT, IL, RT and IRT all call into it, so performance
differences between searchers are attributable to candidate retrieval and
pruning alone.

The evaluator fronts the two kernels of
:data:`repro.core.kernels.KERNELS`:

* ``'scalar'`` — the seed implementations (Algorithm 3's sorted scan over
  :class:`~repro.core.match.PointMatchTable`, Algorithm 4's incremental
  DP), kept verbatim as the correctness oracles;
* ``'block'`` — :mod:`repro.core.kernels` (the default): a whole
  validation round is gathered from the candidates' rows of the APL
  array store into one :class:`~repro.core.kernels.CandidateBlock` and
  scored through
  :meth:`MatchEvaluator.dmm_batch` / :meth:`dmom_batch` — one
  distance evaluation, block set-cover lower bounds, and early
  per-candidate abandonment against the running k-th threshold.  The
  per-candidate entry points (:meth:`dmm` / :meth:`dmom`, what RT/IRT
  call once per pop) run the same module's one-matrix-per-candidate
  functions.

Both kernels produce the same distances (to the last ulp — see the
kernels module docstring for the rounding sources) and bump the same
counters, so they are swappable under any searcher without moving a
benchmark's rankings or pruning numbers.  Per-query
state (the activity→bit maps and the query-side distance precomputation)
is prepared once per query, not once per candidate or per metric call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core import kernels
from repro.core.kernels import QueryKernel, dmm_prepared, dmom_prepared, resolve_kernel
from repro.core.match import (
    INFINITY,
    minimum_point_match,
    minimum_point_match_distance,
)
from repro.core.order_match import (
    minimum_order_match,
    minimum_order_match_distance,
    order_feasible,
)
from repro.core.query import Query, QueryPoint
from repro.model.distance import DistanceMetric, EuclideanDistance
from repro.model.trajectory import ActivityTrajectory


@dataclass(slots=True)
class EvaluatorStats:
    """Work counters for the scoring stage."""

    dmm_evaluations: int = 0
    dmom_evaluations: int = 0
    point_match_points: int = 0


class MatchEvaluator:
    """Computes ``Dmm`` / ``Dmom`` / ``Dbm`` for (query, trajectory) pairs.

    Parameters
    ----------
    metric:
        Distance strategy; defaults to Euclidean.
    kernel:
        One of :data:`repro.core.kernels.KERNELS`: ``'block'`` (the
        default: NumPy arrays — one flat tensor per validation round
        through the ``*_batch`` entries, one matrix per candidate through
        :meth:`dmm` / :meth:`dmom`) or ``'scalar'`` (the seed oracles).
    """

    def __init__(
        self, metric: Optional[DistanceMetric] = None, kernel: str = "block"
    ) -> None:
        self.metric: DistanceMetric = metric or EuclideanDistance()
        self.kernel = resolve_kernel(kernel)
        self.stats = EvaluatorStats()
        # (query, QueryKernel | None) — rebuilt when the query object
        # changes.  Stored as one tuple so concurrent use
        # of a shared evaluator can at worst rebuild redundantly, never mix
        # one query's preparation with another's.
        self._qstate: Optional[tuple] = None
        #: ``[first_entry_s, last_exit_s, busy_s, columns]`` around the
        #: batch entries' block assembly, set by a tracing engine run;
        #: ``None`` — the default — reads no clock.
        self.assemble_clock: Optional[list] = None

    # ------------------------------------------------------------------
    # Per-query preparation
    # ------------------------------------------------------------------
    def _kernel_for(self, query: Query) -> Optional[QueryKernel]:
        """The query's :class:`QueryKernel`; ``None`` under the scalar kernel."""
        state = self._qstate
        if state is None or state[0] is not query:
            state = (query, QueryKernel(query, self.metric) if self.kernel == "block" else None)
            self._qstate = state
        return state[1]

    # ------------------------------------------------------------------
    # Candidate point sets (the in-memory view of the APL)
    # ------------------------------------------------------------------
    def _candidate_points(self, trajectory: ActivityTrajectory, q: QueryPoint):
        """``CP`` for one query point: positions from the union of the
        trajectory's posting lists over ``q.Φ`` (Algorithm 3, line 1)."""
        posting = trajectory.posting_lists
        positions: set[int] = set()
        for activity in q.activities:
            positions.update(posting.get(activity, ()))
        self.stats.point_match_points += len(positions)
        return [(pos, trajectory.points[pos]) for pos in sorted(positions)]

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def dmpm(self, q: QueryPoint, trajectory: ActivityTrajectory) -> float:
        """Minimum point match distance for a single query point."""
        return minimum_point_match_distance(
            q.coord, q.activities, self._candidate_points(trajectory, q), self.metric
        )

    def dmm(self, query: Query, trajectory: ActivityTrajectory) -> float:
        """``Dmm(Q, Tr)`` via Lemma 1: the sum of per-query-point ``Dmpm``.

        Returns ``inf`` as soon as any query point has no point match.
        """
        self.stats.dmm_evaluations += 1
        qkernel = self._kernel_for(query)
        if qkernel is not None:
            cand = kernels.prepare_candidate(qkernel, trajectory)
            if cand is None:
                return INFINITY
            return dmm_prepared(qkernel, cand, self.stats)
        return self._dmm_scalar(query, trajectory)

    def _dmm_scalar(self, query: Query, trajectory: ActivityTrajectory) -> float:
        total = 0.0
        for q in query:
            d = self.dmpm(q, trajectory)
            if d == INFINITY:
                return INFINITY
            total += d
        return total

    def dmm_explained(
        self, query: Query, trajectory: ActivityTrajectory
    ) -> Tuple[float, Tuple[Tuple[int, ...], ...]]:
        """``Dmm`` plus the matched positions per query point (always the
        scalar tables — reconstruction needs the parent pointers)."""
        self.stats.dmm_evaluations += 1
        total = 0.0
        matches: List[Tuple[int, ...]] = []
        for q in query:
            d, positions = minimum_point_match(
                q.coord, q.activities, self._candidate_points(trajectory, q), self.metric
            )
            if d == INFINITY:
                return INFINITY, ()
            total += d
            matches.append(positions)
        return total, tuple(matches)

    def dmom(
        self,
        query: Query,
        trajectory: ActivityTrajectory,
        threshold: float = INFINITY,
        check_order: bool = True,
    ) -> float:
        """``Dmom(Q, Tr)`` via Algorithm 4, with three pruning layers:

        1. the MIB order-feasibility check (Section VI-B);
        2. the ``Dmm`` gate — by Lemma 3 ``Dmm <= Dmom``, so a candidate
           whose cheap ``Dmm`` already exceeds the running k-th best
           ``Dmom`` can skip the expensive DP entirely;
        3. the DP's own row-level threshold early-exit (Lemma 4).

        The block kernel prepares the candidate's distance matrix once
        and reuses it for both the ``Dmm`` gate and the DP.
        """
        self.stats.dmom_evaluations += 1
        if check_order and not order_feasible(trajectory, query):
            return INFINITY
        qkernel = self._kernel_for(query)
        if qkernel is not None:
            cand = kernels.prepare_candidate(qkernel, trajectory)
            self.stats.dmm_evaluations += 1  # the gate is a Dmm evaluation
            if cand is None:
                return INFINITY
            lower = dmm_prepared(qkernel, cand, self.stats)
            if lower == INFINITY or lower > threshold:
                return INFINITY
            return dmom_prepared(qkernel, cand, threshold)
        self.stats.dmm_evaluations += 1
        lower = self._dmm_scalar(query, trajectory)
        if lower == INFINITY or lower > threshold:
            return INFINITY
        return minimum_order_match_distance(query, trajectory, self.metric, threshold)

    # ------------------------------------------------------------------
    # Block scoring — one call per validation round (kernel='block')
    # ------------------------------------------------------------------
    def _block_kernel(self, query: Query) -> QueryKernel:
        """The per-query :class:`QueryKernel` the batch entry points run
        on, with a clear error for the scalar kernel (the per-candidate
        :meth:`dmm`/:meth:`dmom` siblings are the scalar-capable API)."""
        qkernel = self._kernel_for(query)
        if qkernel is None:
            raise ValueError(
                "batch scoring requires kernel='block' (this evaluator runs "
                f"{self.kernel!r}); call dmm/dmom per candidate instead"
            )
        return qkernel

    def _assemble(self, qkernel: QueryKernel, candidates) -> kernels.CandidateBlock:
        """One round's block, timed into :attr:`assemble_clock` when set."""
        clock = self.assemble_clock
        if clock is None:
            return kernels.prepare_block(qkernel, candidates)
        entered = time.time()
        block = kernels.prepare_block(qkernel, candidates)
        clock[1] = time.time()
        if clock[0] is None:
            clock[0] = entered
        clock[2] += clock[1] - entered
        clock[3] += block.total
        return block

    def dmm_batch(self, query: Query, candidates) -> List[float]:
        """``Dmm`` for one validation round's candidates in one shot.

        *candidates* is the round as a
        :class:`~repro.index.gat.apl.PostingRound` against the query's
        sorted activities — what validation hands on, lookup included;
        scoring gathers the posted positions and coordinates it needs
        from the round's APL image.  Counter
        semantics match calling :meth:`dmm` once per candidate exactly,
        and so do the values — the whole-round array formulations
        (:func:`~repro.core.kernels.block_dmm` /
        :func:`~repro.core.kernels.block_dmm_all_single`) compute every
        candidate's exact ``Dmm``, so there is nothing to abandon against
        a threshold here (:meth:`dmom_batch` does gate real per-candidate
        work).
        """
        self.stats.dmm_evaluations += len(candidates)
        if not len(candidates):
            return []
        qkernel = self._block_kernel(query)
        if qkernel.all_single:
            # Order-free Dmm needs no position dedup: the duplicated
            # activity-segment layout skips block preparation entirely.
            return kernels.block_dmm_all_single(qkernel, candidates, self.stats).tolist()
        block = self._assemble(qkernel, candidates)
        return kernels.block_dmm(qkernel, block, self.stats).tolist()

    def dmom_batch(
        self,
        query: Query,
        candidates,
        threshold: float = INFINITY,
        k: Optional[int] = None,
    ) -> List[float]:
        """``Dmom`` for one validation round's candidates (a
        :class:`~repro.index.gat.apl.PostingRound`, as for
        :meth:`dmm_batch`) in one shot.

        The pruning layers of :meth:`dmom` after the MIB check — which is
        the validation chain's business, and which the DP subsumes: an
        order-infeasible candidate comes back ``inf`` either way — applied
        blockwise: the Lemma-3 gate is one
        :func:`~repro.core.kernels.block_dmm` call whose abandonment drops
        candidates before any per-candidate DP work (the gate never
        tightens on ``Dmm`` values — the ranked metric here is ``Dmom``),
        then the DP with its Lemma-4 row exit.  Counters are identical to
        the per-candidate loop with ``check_order=False`` (the gate bumps
        one ``Dmm`` evaluation per candidate, exactly like :meth:`dmom`).
        """
        self.stats.dmom_evaluations += len(candidates)
        self.stats.dmm_evaluations += len(candidates)  # the gate, one per candidate
        if not len(candidates):
            return []
        qkernel = self._block_kernel(query)
        block = self._assemble(qkernel, candidates)
        return kernels.block_dmom(qkernel, block, self.stats, threshold, k=k).tolist()

    def dmom_explained(
        self, query: Query, trajectory: ActivityTrajectory
    ) -> Tuple[float, Tuple[Tuple[int, ...], ...]]:
        """``Dmom`` plus the order-sensitive match positions."""
        self.stats.dmom_evaluations += 1
        if not order_feasible(trajectory, query):
            return INFINITY, ()
        return minimum_order_match(query, trajectory, self.metric)

    def best_match_distance(self, query: Query, trajectory: ActivityTrajectory) -> float:
        """``Dbm(Q, Tr)`` — the activity-blind best match distance of the
        RT baseline (Section III-B): sum over query points of the distance
        to the nearest trajectory point.  Lower-bounds ``Dmm`` (Lemma 2)."""
        metric = self.metric
        total = 0.0
        for q in query:
            total += min(metric(q.coord, p.coord) for p in trajectory)
        return total
