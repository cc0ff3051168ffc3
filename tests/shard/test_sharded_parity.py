"""Exactness: sharded top-k must equal the single-index ranking.

The acceptance bar of the sharding subsystem — for any shard count and any
executor backend, the merged (id, distance) lists match the unsharded
``GATIndex`` byte-for-byte: equal ids, equal float distances (``==``, not
approx), equal order, for both ATSQ and order-sensitive OATSQ.

Distances depend only on (query, trajectory), whole trajectories live in
exactly one shard, and the merge reuses the engine's own
:class:`TopKCollector` tie-breaks — so any deviation at all is a bug.
"""

import pytest

from repro.core.engine import EngineConfig, GATSearchEngine
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.index.gat.index import GATConfig, GATIndex
from repro.service import QueryRequest
from repro.shard import ShardedGATIndex, ShardedQueryService

CONFIG = GATConfig(depth=4, memory_levels=3)
K = 6
N_QUERIES = 5


@pytest.fixture(scope="module")
def queries(tiny_db):
    gen = QueryWorkloadGenerator(
        tiny_db,
        WorkloadConfig(n_query_points=3, n_activities_per_point=2, seed=41),
    )
    return gen.queries(N_QUERIES)


@pytest.fixture(scope="module")
def single_engine(tiny_db):
    return GATSearchEngine(GATIndex.build(tiny_db, CONFIG))


def _expected(single_engine, queries):
    out = []
    for i, query in enumerate(queries):
        ranked = single_engine.execute(
            query, K, order_sensitive=(i % 2 == 1)
        ).ranked
        out.append([(r.trajectory_id, r.distance) for r in ranked])
    return out


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_topk_identical_to_single_index(
    tiny_db, queries, single_engine, n_shards, executor
):
    sharded = ShardedGATIndex.build(tiny_db, n_shards=n_shards, config=CONFIG)
    expected = _expected(single_engine, queries)
    with ShardedQueryService(
        sharded, executor=executor, result_cache_size=0
    ) as service:
        for i, query in enumerate(queries):
            response = service.search(query, k=K, order_sensitive=(i % 2 == 1))
            got = [(r.trajectory_id, r.distance) for r in response.results]
            assert got == expected[i], (n_shards, executor, i)


@pytest.mark.parametrize("strategy", ["hash", "spatial"])
def test_parity_independent_of_routing_strategy(
    tiny_db, queries, single_engine, strategy
):
    sharded = ShardedGATIndex.build(
        tiny_db, n_shards=3, config=CONFIG, strategy=strategy
    )
    expected = _expected(single_engine, queries)
    with ShardedQueryService(sharded, executor="serial") as service:
        got = [
            [(r.trajectory_id, r.distance) for r in resp.results]
            for resp in service.search_many(
                [
                    QueryRequest(q, k=K, order_sensitive=(i % 2 == 1))
                    for i, q in enumerate(queries)
                ]
            )
        ]
    assert got == expected


def test_batched_fanout_preserves_request_order(tiny_db, queries, single_engine):
    """search_many flattens (query, shard) tasks into one pool; response i
    must still answer request i, identical to the sequential path."""
    sharded = ShardedGATIndex.build(tiny_db, n_shards=4, config=CONFIG)
    expected = _expected(single_engine, queries)
    with ShardedQueryService(sharded, executor="thread", max_workers=6) as service:
        responses = service.search_many(
            [
                QueryRequest(q, k=K, order_sensitive=(i % 2 == 1))
                for i, q in enumerate(queries)
            ]
        )
    got = [[(r.trajectory_id, r.distance) for r in resp.results] for resp in responses]
    assert got == expected


def test_explain_matches_single_index(tiny_db, queries, single_engine):
    sharded = ShardedGATIndex.build(tiny_db, n_shards=2, config=CONFIG)
    query = queries[0]
    want = single_engine.execute(query, K, order_sensitive=True, explain=True).ranked
    with ShardedQueryService(sharded, executor="serial") as service:
        got = service.search(query, k=K, order_sensitive=True, explain=True).results
    assert [(r.trajectory_id, r.distance, r.matches) for r in got] == [
        (r.trajectory_id, r.distance, r.matches) for r in want
    ]


def test_parity_with_scalar_kernel_config(tiny_db, queries):
    """The engine config (here: the scalar kernel) is applied uniformly
    across shards, and parity holds against a single index using the same
    config."""
    config = EngineConfig(kernel="scalar")
    single = GATSearchEngine(GATIndex.build(tiny_db, CONFIG), config=config)
    sharded = ShardedGATIndex.build(tiny_db, n_shards=3, config=CONFIG)
    query = queries[1]
    want = single.execute(query, K).ranked
    with ShardedQueryService(sharded, engine_config=config, executor="serial") as svc:
        got = svc.search(query, k=K).results
    assert [(r.trajectory_id, r.distance) for r in got] == [
        (r.trajectory_id, r.distance) for r in want
    ]
