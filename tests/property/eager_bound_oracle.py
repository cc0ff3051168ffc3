"""Algorithm 1's round as ``GATSearchEngine.execute`` ran it while Algorithm 2
was eager — kept (tracing, ``explain`` and the result sink dropped) as the
oracle ``test_eager_bound_differential.py`` compares the lazy termination
test against.

Every round computes ``D_lb`` in full right after retrieval, before
validation: Algorithm 2's min-cover over every query point's frontier (or,
under the loose-bound ablation, the queue top), whatever the threshold.
After scoring the search stops once the k-th best distance beats it.  The
production engine tests the same ``τ < D_lb`` after scoring but computes
``D_lb`` only when ``τ`` is finite and two sums read off the queue cannot
decide it; since nothing moves the queue between retrieval and that test,
both must see the same rounds, rankings and counters.
"""

from repro.core.context import ExecutionContext
from repro.core.evaluator import MatchEvaluator
from repro.core.lower_bound import lower_bound_distance
from repro.core.match import INFINITY
from repro.core.pipeline import CandidateRetriever, ScoringStage, ValidationStage
from repro.core.results import SearchResult


def eager_execute(engine, query, k, order_sensitive=False, external_threshold=None):
    """One query through *engine*'s index and configuration in the eager
    round order; returns the finished :class:`ExecutionContext`."""
    ctx = ExecutionContext(
        query=query,
        k=k,
        order_sensitive=order_sensitive,
        evaluator=MatchEvaluator(engine.metric, kernel=engine.kernel),
        external_threshold=external_threshold,
    )
    validation = ValidationStage(engine.filter_chain(order_sensitive), engine.index.apl)
    scoring = ScoringStage()
    with engine.index.disk.track() as disk:
        retriever = CandidateRetriever(engine.index, query, ctx.stats)
        shared_mode = external_threshold is not None
        while True:
            ctx.stats.rounds += 1
            stop_mdist = ctx.threshold() if shared_mode else INFINITY
            new_candidates = retriever.retrieve(engine.retrieval_batch, stop_mdist=stop_mdist)
            if engine.use_tight_lower_bound:
                lower = lower_bound_distance(
                    retriever.frontiers(), retriever.bitmaps, engine.lb_cells
                )
            else:
                lower = retriever.queue_top_mdist()
            admitted = validation.admit_batch(ctx, new_candidates)
            if ctx.block_scoring:
                distances = scoring.score_batch(ctx, admitted)
            else:
                trajectories = engine.db.trajectories
                distances = (
                    scoring.score(ctx, trajectories[row]) for row in admitted.rows.tolist()
                )
            for trajectory_id, distance in zip(admitted.ids.tolist(), distances):
                if distance != INFINITY:
                    ctx.results.offer(SearchResult(trajectory_id, distance))
            if ctx.threshold() < lower:
                break
            if not new_candidates and retriever.exhausted:
                break
            if shared_mode and retriever.queue_top_mdist() > ctx.threshold():
                break
    ctx.stats.disk_reads = disk.reads
    ctx.stats.disk_pages_read = disk.pages_read
    ctx.ranked = ctx.results.results()
    return ctx
