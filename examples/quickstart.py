"""Quickstart: build a database, index it, run an ATSQ and an OATSQ —
then serve a whole batch concurrently through the QueryService.

Reproduces the paper's Figure 1 scenario in miniature: a tourist plans to
visit three places with desired activities and wants the most similar
activity trajectories as references.

Run:  python examples/quickstart.py
"""

from repro import (
    GATConfig,
    GATIndex,
    GATSearchEngine,
    Query,
    QueryRequest,
    QueryService,
    ShardedGATIndex,
    ShardedQueryService,
    TrajectoryDatabase,
)

# ----------------------------------------------------------------------
# 1. A tiny activity-trajectory database.  In the raw form each point is
#    (x_km, y_km, [activity names]); TrajectoryDatabase.from_raw builds the
#    frequency-ordered vocabulary automatically.
# ----------------------------------------------------------------------
raw_trajectories = [
    # Trajectory 0: brunch downtown, then a museum, then a jazz bar.
    [
        (1.0, 1.0, ["brunch", "coffee"]),
        (1.5, 1.2, ["museum"]),
        (2.0, 1.8, ["jazz", "cocktails"]),
    ],
    # Trajectory 1: the foodie loop.
    [
        (1.1, 0.9, ["brunch"]),
        (1.3, 1.1, ["streetfood", "coffee"]),
        (2.1, 1.9, ["cocktails"]),
        (2.4, 2.2, ["jazz"]),
    ],
    # Trajectory 2: sports day far from downtown.
    [
        (8.0, 8.0, ["hiking"]),
        (8.5, 8.6, ["climbing", "picnic"]),
    ],
    # Trajectory 3: a close geometric match that lacks the activities —
    # the paper's motivating trap for purely spatial search.
    [
        (1.0, 1.0, ["parking"]),
        (1.5, 1.2, ["phonecall"]),
        (2.0, 1.8, ["parking"]),
    ],
]

db = TrajectoryDatabase.from_raw(raw_trajectories, name="quickstart")
print(f"database: {len(db)} trajectories, {db.n_points()} points, "
      f"{len(db.vocabulary)} distinct activities")

# ----------------------------------------------------------------------
# 2. Build the GAT index (the paper's defaults are depth=8, memory_levels=6;
#    a toy database only needs a shallow grid).
#
#    The engine scores candidates through the round-batched NumPy block
#    kernel (kernel="block", the default); pass kernel="scalar" for the
#    from-the-paper reference implementations — rankings and pruning
#    counters are identical either way, the array kernels are just
#    ~7x faster on paper-scale data (see benchmarks/bench_kernel_scoring.py).
# ----------------------------------------------------------------------
index = GATIndex.build(db, GATConfig(depth=4, memory_levels=3))
engine = GATSearchEngine(index)  # kernel="block" | "scalar"

# ----------------------------------------------------------------------
# 3. The tourist's plan: three locations, each with desired activities.
# ----------------------------------------------------------------------
query = Query.from_named(
    db.vocabulary,
    [
        (1.0, 1.0, ["brunch"]),
        (1.4, 1.1, ["coffee"]),
        (2.0, 1.9, ["jazz", "cocktails"]),
    ],
)

print("\nATSQ (order-free) top-3, with the matched points:")
for rank, result in enumerate(engine.atsq(query, k=3, explain=True), start=1):
    print(f"  #{rank}: trajectory {result.trajectory_id} "
          f"Dmm={result.distance:.3f} matches={result.matches}")

print("\nOATSQ (order-sensitive) top-3:")
for rank, result in enumerate(engine.oatsq(query, k=3, explain=True), start=1):
    print(f"  #{rank}: trajectory {result.trajectory_id} "
          f"Dmom={result.distance:.3f} matches={result.matches}")

# Trajectory 3 sits right on the query locations but can never appear: it
# covers none of the requested activities.  Trajectory 2 is activity-poor
# AND far away.  Trajectories 0 and 1 compete on match distance.
#
# The work counters below belong to the OATSQ just run.  Note the disk
# reads: the engine's shared LRU caches stay warm across queries, so a
# repeat of a similar query costs little or no counted I/O — the first
# (cold) query paid for the APL fetches.
stats = engine.stats
print(f"\nengine work (warm repeat query): {stats.cells_popped} cells popped, "
      f"{stats.candidates_retrieved} candidates, "
      f"{stats.tas_pruned} TAS-pruned, {stats.disk_reads} disk reads")

# ----------------------------------------------------------------------
# 4. Batched serving: the engine is stateless per query, so one
#    QueryService fans a whole batch out over a thread pool.  Responses
#    come back in request order, identical to a sequential loop.
# ----------------------------------------------------------------------
service = QueryService(engine, max_workers=4)
batch = [
    QueryRequest(query, k=3),                        # the tourist's ATSQ
    QueryRequest(query, k=3, order_sensitive=True),  # ... and as an OATSQ
    QueryRequest(
        Query.from_named(db.vocabulary, [(1.2, 1.0, ["coffee", "streetfood"])]),
        k=2,
    ),
]
responses = service.search_many(batch)
print("\nbatched serving (QueryService, 4 workers):")
for i, resp in enumerate(responses, start=1):
    label = "Dmom" if resp.request.order_sensitive else "Dmm"
    top = ", ".join(f"Tr{r.trajectory_id}({label}={r.distance:.2f})"
                    for r in resp.results)
    print(f"  request {i}: {top}  [{resp.latency_s * 1000:.2f} ms]")

# The service memoises ranked results by query signature: repeating a
# request is a pure LRU hit (zero engine work, zero disk reads).  The
# cache is invalidated automatically when GATIndex.insert_trajectory
# bumps the index version.
repeat = service.search(query, k=3)
svc = service.stats()
print(f"\nrepeat of request 1: {repeat.stats.rounds} engine rounds "
      f"(served from the result cache)")
print(f"service: {svc.queries} queries, {svc.qps:.0f} QPS, "
      f"p95 {svc.latency_p95_s * 1000:.2f} ms, "
      f"APL cache hit rate {svc.apl_cache_hit_rate:.0%}, "
      f"result cache {svc.result_cache_hits}/{svc.result_cache_lookups} hits")

# ----------------------------------------------------------------------
# 5. Scaling out: partition the database into per-shard GAT indexes and
#    fan each query out across them.  Trajectories are sharded whole, so
#    the merged top-k is byte-identical to the single index — compare the
#    rankings below with step 3.  executor="thread" overlaps the shards'
#    disk I/O; executor="process" runs them in worker processes (GIL-free
#    CPU on multi-core machines); 2 shards is plenty for a toy database.
# ----------------------------------------------------------------------
sharded = ShardedGATIndex.build(db, n_shards=2, config=GATConfig(depth=4, memory_levels=3))
with ShardedQueryService(sharded, executor="thread") as shard_service:
    print(f"\nsharded serving ({sharded!r}):")
    for label, order_sensitive in (("ATSQ", False), ("OATSQ", True)):
        response = shard_service.search(query, k=3, order_sensitive=order_sensitive)
        top = ", ".join(f"Tr{r.trajectory_id}({r.distance:.2f})" for r in response.results)
        print(f"  {label} top-3 across shards: {top}  "
              f"[{response.stats.disk_reads} disk reads over "
              f"{sharded.n_shards} shard disks]")
