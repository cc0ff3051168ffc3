"""The best-first search framework over the GAT index — Algorithm 1
(Section V) with the candidate-retrieval strategy of Section V-A.

Query processing alternates two phases until the pruning condition fires:

1. **Candidate retrieval** — :class:`~repro.core.pipeline.CandidateRetriever`
   pops cells from a single best-first priority queue across *all* query
   points, expanding HICL children or harvesting leaf ITL lists, until at
   least ``λ`` new candidates have been gathered.
2. **Validation + scoring** — each new candidate runs the
   :class:`~repro.core.pipeline.ValidationStage` chain (TAS superset
   check → APL exact check → MIB order check for OATSQ), then the
   :class:`~repro.core.pipeline.ScoringStage` distance computation
   (Algorithm 3 / Algorithm 4 via
   :class:`~repro.core.evaluator.MatchEvaluator`).

After every round's scoring the search stops when the current k-th best
distance beats the lower bound ``D_lb`` for all unseen trajectories
(Algorithm 2).  The test is lazy and exact: it is skipped while the k-th
distance is still infinite, and Algorithm 2's min-cover runs only when two
sums read off the queue cannot decide it
(:func:`~repro.core.lower_bound.beats_unseen`).  Nothing moves the queue
between retrieval and the test, so ``D_lb`` is the value the paper computes
right after retrieval.  OATSQ reuses the identical retrieval machinery
because ``Dmm`` lower-bounds ``Dmom`` (Lemma 3).

Concurrency: the engine object holds only immutable configuration and
index references — every mutable per-query artefact (counters, heap,
frontiers, top-k collector, evaluator) lives in the
:class:`~repro.core.context.ExecutionContext` built per call, and disk
I/O is attributed per query via :meth:`SimulatedDisk.track`.  One engine
can therefore serve many threads at once (see
:class:`repro.service.QueryService`).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.obs.trace import activate

from repro.core.context import ExecutionContext, SearchStats
from repro.core.evaluator import MatchEvaluator
from repro.core.kernels import resolve_kernel
from repro.core.lower_bound import LB_CELLS, beats_unseen, lower_bound_distance
from repro.core.match import INFINITY
from repro.core.pipeline import (
    APLFilter,
    CandidateRetriever,
    MIBFilter,
    ScoringStage,
    TASFilter,
    ValidationStage,
)
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.index.gat.index import GATIndex
from repro.model.distance import DistanceMetric
from repro.storage.cache import RowLRU

__all__ = ["EngineConfig", "GATSearchEngine", "SearchStats", "ExecutionContext"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Immutable engine knobs — search parameters, ablations, the APL
    cache size and the scoring kernel.

    Attributes
    ----------
    retrieval_batch:
        ``λ`` of Algorithm 1 — minimum *new* candidates per retrieval
        round.  The paper leaves it unspecified; 32 balances round
        overhead against over-retrieval (see the ablation benchmark).
    use_tas / use_tight_lower_bound:
        Ablation switches (both on = the paper's design).  Disabling TAS
        drops the sketch filter from the validation chain; disabling the
        tight lower bound falls back to the loose queue-top bound the
        paper rejects.
    apl_cache_size:
        Capacity of the engine-level LRU of *resident* APL records: a
        trajectory whose record was fetched recently skips the counted
        disk read (the LRU holds residency, keyed by APL row — one per
        trajectory — as a recency list in C,
        :class:`~repro.storage.cache.RowLRU`; the record itself is a row
        range of the store, never a decoded copy).  ``0`` disables it,
        restoring the seed behaviour of one APL read per surviving
        candidate per query.
    kernel:
        Scoring kernel, one of :data:`repro.core.kernels.KERNELS`:
        ``'block'`` (the default: one flat tensor per validation
        round — every candidate's relevant points concatenated, no
        padding, gathered from the APL array store — with early
        abandonment against the running k-th threshold) or
        ``'scalar'`` (the seed oracles every parity suite compares
        against).  Both return the same rankings and pruning counters
        (see :mod:`repro.core.kernels`).
    """

    retrieval_batch: int = 32
    use_tas: bool = True
    use_tight_lower_bound: bool = True
    apl_cache_size: int = 2048
    kernel: str = "block"

    def __post_init__(self) -> None:
        if self.retrieval_batch < 1:
            raise ValueError("retrieval_batch (λ) must be >= 1")
        if self.apl_cache_size < 0:
            raise ValueError("apl_cache_size must be >= 0")
        resolve_kernel(self.kernel)  # fail fast on an unknown kernel


class GATSearchEngine:
    """ATSQ / OATSQ processing over a :class:`~repro.index.gat.index.GATIndex`.

    Parameters
    ----------
    index:
        A built GAT index (owns the database it indexes).
    metric:
        Distance strategy for scoring; defaults to the evaluator's
        Euclidean.  Every pruning bound (cell MINDIST, ``D_lb``) is planar,
        so rankings are exact only for a metric never below the Euclidean
        distance; :class:`~repro.model.distance.MatrixDistance` exists to
        replay the paper's worked examples.
    config:
        The :class:`EngineConfig` to run under (default: its defaults).
    **overrides:
        :class:`EngineConfig` fields by name (``kernel="scalar"``,
        ``apl_cache_size=0``, …) replacing *config*'s; a name that is
        not a field raises ``TypeError``.
    """

    def __init__(
        self,
        index: GATIndex,
        metric: Optional[DistanceMetric] = None,
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> None:
        self.config = replace(config if config is not None else EngineConfig(), **overrides)
        self.index = index
        self.db = index.db
        self.metric = metric
        self.kernel = resolve_kernel(self.config.kernel)
        self.retrieval_batch = self.config.retrieval_batch
        self.use_tas = self.config.use_tas
        self.use_tight_lower_bound = self.config.use_tight_lower_bound
        self.apl_cache: Optional[RowLRU] = (
            RowLRU(self.config.apl_cache_size)
            if self.config.apl_cache_size > 0
            else None
        )
        self._scoring = ScoringStage()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def atsq(self, query: Query, k: int, explain: bool = False) -> List[SearchResult]:
        """Top-k trajectories by minimum match distance (ATSQ)."""
        return self.execute(query, k, order_sensitive=False, explain=explain).ranked

    def oatsq(self, query: Query, k: int, explain: bool = False) -> List[SearchResult]:
        """Top-k trajectories by minimum order-sensitive match distance."""
        return self.execute(query, k, order_sensitive=True, explain=explain).ranked

    # ------------------------------------------------------------------
    # Pipeline assembly
    # ------------------------------------------------------------------
    def filter_chain(self, order_sensitive: bool) -> list:
        """The validation chain for one query — the paper's TAS → APL
        (→ MIB for OATSQ) order.  Ablations and experiments can compose
        their own chain and pass it to :meth:`execute`."""
        filters: list = []
        if self.use_tas:
            filters.append(TASFilter(self.index.sketches))
        filters.append(APLFilter(self.index.apl, self.apl_cache))
        if order_sensitive:
            filters.append(MIBFilter())
        return filters

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        k: int,
        order_sensitive: bool = False,
        explain: bool = False,
        filters: Optional[list] = None,
        external_threshold=None,
        result_sink=None,
        trace_span=None,
    ) -> ExecutionContext:
        """Run one query through the staged pipeline and return its
        completed :class:`ExecutionContext` (results in ``ranked``,
        counters in ``stats``).

        *external_threshold* / *result_sink* are the distributed-top-k
        hooks used by the sharded fan-out: the sink receives every result
        entering the local top-k (feeding a cross-shard merged collector),
        and the threshold callable supplies that merged collector's k-th
        distance, which tightens both the Lemma-4 scoring prune and
        Algorithm 1's termination test.  Sound because the merged
        population is a superset of this shard's: anything worse than the
        merged k-th can't be in the merged top-k, and when the merged k-th
        beats this shard's unseen lower bound no unseen local trajectory
        can either.  With both hooks unset the behaviour is exactly the
        paper's single-index Algorithm 1.

        *trace_span* (a :class:`repro.obs.trace.Span`) turns on per-stage
        tracing: the span becomes the thread's active span for the
        duration (so disk reads and injected faults attach to it as
        events) and retrieve/validate/score/lower_bound stage children are
        emitted under it, each covering that stage's first entry to last
        exit with the accumulated in-stage time as a ``busy_s`` attribute;
        ``score`` carries ``distances``, the hypot evaluations the block
        entries made (0 under the scalar kernel), and under the block
        kernel gets an ``assemble`` child for the rounds' block builds
        (``busy_s``, and ``columns`` = Σ block widths).  ``lower_bound`` is the termination test, present once a
        round ran it: ``evaluated`` counts the rounds with a finite
        threshold, ``exact`` those that ran Algorithm 2's min-cover.
        ``None`` — the default — skips every instrumentation branch.
        """
        ctx = ExecutionContext(
            query=query,
            k=k,
            order_sensitive=order_sensitive,
            explain=explain,
            evaluator=MatchEvaluator(self.metric, kernel=self.kernel),
            external_threshold=external_threshold,
            trace_span=trace_span,
        )
        validation = ValidationStage(
            self.filter_chain(order_sensitive) if filters is None else filters,
            self.index.apl,
        )
        span = trace_span
        if span is not None:
            # Per-stage [first_entry_s, last_exit_s, busy_s] accumulators;
            # stage spans are emitted once after the loop, so tracing adds
            # clock reads per round, never per-round span churn.
            stage_clock = {
                "retrieve": [None, 0.0, 0.0],
                "validate": [None, 0.0, 0.0],
                "score": [None, 0.0, 0.0],
                "lower_bound": [None, 0.0, 0.0, 0, 0],  # + evaluated, exact
            }
            # Block assembly runs inside the evaluator's batch entries:
            # [first_entry_s, last_exit_s, busy_s, columns].
            ctx.evaluator.assemble_clock = [None, 0.0, 0.0, 0]

            def exact(*args):
                stage_clock["lower_bound"][4] += 1
                return lower_bound_distance(*args)

        else:
            exact = lower_bound_distance
        t0 = time.perf_counter()

        with activate(span) if span is not None else nullcontext(), self.index.disk.track() as disk:
            # Inside the tracked block: seeding the retriever reads the
            # level-1 HICL lists, which count toward this query's I/O.
            retriever = CandidateRetriever(self.index, query, ctx.stats)
            shared_mode = external_threshold is not None
            while True:
                ctx.stats.rounds += 1
                # Distributed-top-k only: bound the best-first expansion by
                # the merged threshold (exact — see retrieve()).  The
                # single-index path keeps the paper's unbounded rounds.
                stop_mdist = ctx.threshold() if shared_mode else INFINITY
                if span is not None:
                    t_stage = time.time()
                new_candidates = retriever.retrieve(
                    self.retrieval_batch, stop_mdist=stop_mdist
                )
                if span is not None:
                    t_stage = self._stage_tick(stage_clock["retrieve"], t_stage)
                admitted = validation.admit_batch(ctx, new_candidates)
                if span is not None:
                    t_stage = self._stage_tick(stage_clock["validate"], t_stage)
                if ctx.block_scoring:
                    # Block kernel: the whole round in one scoring call —
                    # distances evaluated only while a candidate's partial
                    # Dmm is within the k-th threshold (read at round start,
                    # tightened per candidate inside block_dmom), block
                    # lower bounds, early abandonment.
                    distances = self._scoring.score_batch(ctx, admitted)
                else:
                    # The scalar kernel keeps the interleaved loop over the
                    # object model: each score sees the threshold tightened
                    # by the round's earlier offers (same rankings either
                    # way).
                    trajectories = self.db.trajectories
                    distances = (
                        self._scoring.score(ctx, trajectories[row])
                        for row in admitted.rows.tolist()
                    )
                for trajectory_id, distance in zip(admitted.ids.tolist(), distances):
                    if distance != INFINITY:
                        result = SearchResult(trajectory_id, distance)
                        ctx.results.offer(result)
                        if result_sink is not None:
                            result_sink(result)
                if span is not None:
                    t_stage = self._stage_tick(stage_clock["score"], t_stage)
                threshold = ctx.threshold()
                if threshold != INFINITY:  # inf < D_lb never holds
                    if self.use_tight_lower_bound:
                        beaten = beats_unseen(threshold, retriever, LB_CELLS, exact)
                    else:  # ablation: the loose queue-top bound the paper rejects
                        beaten = threshold < retriever.queue_top_mdist()
                    if span is not None:
                        stage_clock["lower_bound"][3] += 1
                        self._stage_tick(stage_clock["lower_bound"], t_stage)
                    if beaten:
                        break  # no unseen trajectory can beat the current top-k
                if not new_candidates and retriever.exhausted:
                    break  # the whole index has been harvested
                if shared_mode and retriever.queue_top_mdist() > threshold:
                    break  # merged-top-k bound: all undiscovered trajectories
                    # sort behind the queue top, hence behind the k-th best

        ctx.stats.disk_reads = disk.reads
        ctx.stats.disk_pages_read = disk.pages_read

        ranked = ctx.results.results()
        if explain:
            ranked = [self._explain(ctx, r) for r in ranked]
        ctx.ranked = ranked
        ctx.latency_s = time.perf_counter() - t0
        if span is not None:
            self._emit_stage_spans(span, ctx, stage_clock)
        return ctx

    @staticmethod
    def _stage_tick(clock: list, entered_s: float) -> float:
        """Fold one stage visit into its ``[first, last, busy]`` clock and
        return the exit timestamp (the next stage's entry)."""
        now = time.time()
        if clock[0] is None:
            clock[0] = entered_s
        clock[1] = now
        clock[2] += now - entered_s
        return now

    def _emit_stage_spans(self, span, ctx: ExecutionContext, stage_clock: dict) -> None:
        """One child span per pipeline stage, spanning that stage's first
        entry to last exit across every round, with the stage's summed
        in-stage time (``busy_s``) and its work counters as attributes."""
        stats = ctx.stats
        stage_attrs = {
            "retrieve": {
                "rounds": stats.rounds,
                "cells_popped": stats.cells_popped,
                "candidates_retrieved": stats.candidates_retrieved,
            },
            "validate": {
                "tas_pruned": stats.tas_pruned,
                "apl_pruned": stats.apl_pruned,
                "mib_pruned": stats.mib_pruned,
                "validated": stats.validated,
            },
            "score": {"distances": ctx.evaluator.stats.distances},
            "lower_bound": {
                "evaluated": stage_clock["lower_bound"][3],
                "exact": stage_clock["lower_bound"][4],
            },
        }
        for stage, attrs in stage_attrs.items():
            first, last, busy = stage_clock[stage][:3]
            if first is None:
                continue
            child = span.child(stage, attrs=dict(attrs, busy_s=busy))
            child.start_s = first
            child.end(at=last)
            if stage == "score":
                first, last, busy, columns = ctx.evaluator.assemble_clock
                if first is not None:
                    assemble = child.child(
                        "assemble", attrs={"busy_s": busy, "columns": columns}
                    )
                    assemble.start_s = first
                    assemble.end(at=last)

    def _explain(self, ctx: ExecutionContext, result: SearchResult) -> SearchResult:
        trajectory = self.db.get(result.trajectory_id)
        if ctx.order_sensitive:
            _d, matches = ctx.evaluator.dmom_explained(ctx.query, trajectory)
        else:
            _d, matches = ctx.evaluator.dmm_explained(ctx.query, trajectory)
        return SearchResult(result.trajectory_id, result.distance, matches)
