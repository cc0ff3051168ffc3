"""Early abandoning in the block ``Dmm`` covers.

``block_dmm`` evaluates a candidate's rows left to right and a row only
while the partial sum of the rows before it is ``<= τ``; a candidate whose
sum ends ``> τ`` is ``inf``.  These tests pin the boundary (a ``Dmm`` equal
to τ survives and enters the top-k on its id), the last-row crossing, the
distances a ``τ = inf`` cover writes, block-vs-scalar engine parity with a
binding threshold on one and two shards, and the ``distances`` count the
``score`` span reports.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core import kernels
from repro.core.context import ExecutionContext
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.core.evaluator import EvaluatorStats, MatchEvaluator
from repro.core.kernels import INFINITY, QueryKernel
from repro.core.pipeline import ScoringStage
from repro.core.query import Query, QueryPoint
from repro.core.results import SearchResult
from repro.index.gat.apl import APLStore
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.distance import EuclideanDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary
from repro.obs import Tracer
from repro.shard import ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

#: Rows of 3, 4 and 5 (partial sums 3, 7, 12): q_0 asks two activities, so
#: the round takes the block path, not the all-single one.
QUERY = Query([
    QueryPoint(0.0, 0.0, frozenset({1, 2})),
    QueryPoint(10.0, 0.0, frozenset({3})),
    QueryPoint(20.0, 0.0, frozenset({4})),
])
#: Columns (position order) and the rows whose mask is set there: (0, 3)
#: rows 0; (5, 0) rows 0 and 1; (10, 4) row 1; (20, 5) row 2 — five pairs.
POINTS = [(0.0, 3.0, {1, 2}), (5.0, 0.0, {1, 3}), (10.0, 4.0, {3}), (20.0, 5.0, {4})]
DMM = 12.0


def _store(ids):
    trajectories = [
        ActivityTrajectory(tid, [TrajectoryPoint(x, y, acts) for x, y, acts in POINTS])
        for tid in ids
    ]
    return APLStore(TrajectoryDatabase(trajectories, Vocabulary()), SimulatedDisk())


def _block(qk, store):
    return kernels.prepare_block(qk, store.round([0], qk))


@pytest.mark.parametrize(
    "threshold, value, written",
    [
        (INFINITY, DMM, [2, 2, 1]),
        (DMM, DMM, [2, 2, 1]),  # == τ survives: the test is strict >
        (math.nextafter(DMM, 0.0), INFINITY, [2, 2, 1]),
        (11.0, INFINITY, [2, 2, 1]),  # partial 7 <= 11: it first crosses at the last row
        (7.0, INFINITY, [2, 2, 1]),  # partial 7 == τ: the last row is still evaluated
        (6.0, INFINITY, [2, 2, 0]),  # crosses after row 1: row 2 is skipped
        (2.0, INFINITY, [2, 0, 0]),  # crosses after row 0
    ],
)
def test_rows_are_evaluated_while_the_partial_sum_is_within_tau(threshold, value, written):
    """*written*: the distances each row evaluated, into ``block.big``."""
    qk = QueryKernel(QUERY, EuclideanDistance())
    block = _block(qk, _store([0]))
    stats = EvaluatorStats()
    assert kernels.block_dmm(qk, block, stats, threshold).tolist() == [value]
    assert np.isfinite(block.big).sum(axis=1).tolist() == written
    assert stats.distances == sum(written)
    assert stats.point_match_points == 5  # counted from every row's masks


def test_a_dmm_equal_to_tau_with_a_smaller_id_enters_the_top_k():
    """The k-th result (id 9) holds ``Dmm`` 12; candidate 2 has the same
    points, so the same ``Dmm`` bit for bit, and a smaller id: the round
    scored at τ = 12 must hand it over finite, and it must take the
    place of id 9."""
    store = _store([2, 9])
    ctx = ExecutionContext(QUERY, 1, False, MatchEvaluator())
    kth = MatchEvaluator().dmm_batch(QUERY, store.round([1], ctx.query_kernel))[0]
    assert kth == DMM
    ctx.results.offer(SearchResult(9, kth))
    assert ctx.threshold() == DMM
    (distance,) = ScoringStage().score_batch(ctx, store.round([0], ctx.query_kernel))
    assert distance == DMM
    assert ctx.results.offer(SearchResult(2, distance))
    assert [r.trajectory_id for r in ctx.results.results()] == [2]


def test_an_inf_cover_writes_np_hypot_where_the_mask_is_set_and_inf_elsewhere():
    rng = np.random.default_rng(5)
    trajectories = [
        ActivityTrajectory(tid, [
            TrajectoryPoint(*rng.uniform(-1e3, 1e3, 2).tolist(),
                            set(rng.choice(6, rng.integers(0, 3), replace=False).tolist()))
            for _ in range(rng.integers(1, 12))
        ])
        for tid in range(8)
    ]
    store = APLStore(TrajectoryDatabase(trajectories, Vocabulary()), SimulatedDisk())
    query = Query([
        QueryPoint(*rng.uniform(-1e3, 1e3, 2).tolist(), acts)
        for acts in ({0, 1}, {2}, {3, 4, 5})
    ])
    qk = QueryKernel(query, EuclideanDistance())
    posted = store.round(range(8), qk)
    block = kernels.prepare_block(qk, posted)
    assert np.all(block.big == INFINITY)  # the build evaluates no distance
    kernels.block_dmm(qk, block, threshold=INFINITY)
    xy = np.array([[p.x, p.y] for c in range(8) for p in trajectories[c].points])
    starts = np.cumsum([0] + [len(t.points) for t in trajectories])
    points = np.repeat(starts[:-1], block.lengths) + block.positions
    qxy = np.array([q.coord for q in query])
    want = np.hypot(qxy[:, :1] - xy[points, 0], qxy[:, 1:] - xy[points, 1])
    read = block.mask != 0
    assert read.any() and (~read).any()
    assert np.array_equal(block.big, np.where(read, want, INFINITY))


# ----------------------------------------------------------------------
# Engine level: τ binds once a round has filled the top-k
# ----------------------------------------------------------------------
K = 4
CONFIG = GATConfig(depth=4, memory_levels=3)


@pytest.fixture(scope="module")
def queries(tiny_db):
    gen = QueryWorkloadGenerator(
        tiny_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=17)
    )
    return gen.queries(4)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_block_atsq_equals_the_scalar_kernel_on_shards(tiny_db, queries, n_shards):
    """Ids in order and every ``SearchStats`` field, block vs scalar, with
    rounds of 8 candidates so τ binds.  The serial fan-out runs the shards
    one after another, so the second reads the first's merged k-th; the
    thread fan-out races the shards on it, so there only the rankings are
    compared.  Each run builds its own fleet: HICL hits, hence counted
    reads, depend on what earlier queries left in the cache."""

    def run(kernel, executor):
        sharded = ShardedGATIndex.build(tiny_db, n_shards=n_shards, config=CONFIG)
        config = EngineConfig(kernel=kernel, retrieval_batch=8)
        with ShardedQueryService(
            sharded, engine_config=config, executor=executor, result_cache_size=0
        ) as service:
            responses = [service.search(q, k=K) for q in queries]
        return (
            [[r.trajectory_id for r in resp.results] for resp in responses],
            [asdict(resp.stats) for resp in responses],
        )

    scalar_ids, scalar_stats = run("scalar", "serial")
    block_ids, block_stats = run("block", "serial")
    assert block_ids == scalar_ids and all(len(ids) == K for ids in block_ids)
    assert block_stats == scalar_stats
    assert run("block", "thread")[0] == scalar_ids


def test_the_score_span_counts_fewer_distances_than_pairs(tiny_db, queries, monkeypatch):
    """One tiny-db query whose later rounds run under a finite τ: the
    ``score`` span's ``distances`` is below the pairs with ``mask != 0``
    (what a ``τ = inf`` cover evaluates), which are at most ``|Q| ×
    columns``; the ranking is the untraced one."""
    engine = GATSearchEngine(GATIndex.build(tiny_db, CONFIG), retrieval_batch=8)
    query = queries[0]
    blocks = []
    prepare = kernels.prepare_block

    def keep(*args):
        blocks.append(prepare(*args))
        return blocks[-1]

    monkeypatch.setattr(kernels, "prepare_block", keep)
    tracer = Tracer()
    root = tracer.start_span("shard_task")
    traced = engine.execute(query, K, trace_span=root)
    root.end()
    spans = {span.name: span.attrs for span in tracer.drain()}
    assert traced.stats.rounds > 1 and len(blocks) > 1
    relevant = sum(int(np.count_nonzero(block.mask)) for block in blocks)
    assert 0 < spans["score"]["distances"] < relevant <= len(query) * spans["assemble"]["columns"]
    assert [r.trajectory_id for r in traced.ranked] == [
        r.trajectory_id for r in engine.execute(query, K).ranked
    ]


def test_atsq_in_round_kth_equals_the_scalar_kernel(small_db, monkeypatch):
    """ATSQ rounds of 32 whose first one fills the top-k at ``τ = inf``:
    the block covers tighten to the round's k-th ``Dmm`` as they go and hand
    back ``inf`` for candidates they abandon against it — some candidate of
    these queries is one — yet the rankings, their distances and every
    ``SearchStats`` field are the scalar oracle's."""
    queries = QueryWorkloadGenerator(
        small_db, WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=5)
    ).queries(6)
    abandoned = []
    block_dmm = kernels.block_dmm

    def spy(qk, block, stats=None, threshold=INFINITY, k=None):
        got = block_dmm(qk, block, stats, threshold, k)
        if k:
            plain = block_dmm(qk, block, None, threshold).tolist()
            abandoned.append(sum(g == INFINITY != p for g, p in zip(got.tolist(), plain)))
        return got

    monkeypatch.setattr(kernels, "block_dmm", spy)

    def run(kernel):
        engine = GATSearchEngine(GATIndex.build(small_db, CONFIG), kernel=kernel)
        return [engine.execute(q, K, order_sensitive=False) for q in queries]

    for scalar, block in zip(run("scalar"), run("block")):
        assert [r.trajectory_id for r in block.ranked] == [r.trajectory_id for r in scalar.ranked]
        assert [r.distance for r in block.ranked] == pytest.approx(
            [r.distance for r in scalar.ranked], rel=1e-9
        )
        assert asdict(block.stats) == asdict(scalar.stats)
    assert sum(abandoned) > 0
