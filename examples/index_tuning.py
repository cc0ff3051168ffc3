"""Index tuning: grid granularity, memory split, and sketch size.

Walks the three GAT build-time knobs the paper discusses in Section IV and
Figure 8, printing the trade-offs on a synthetic dataset:

* grid depth d (partition granularity)  — query time vs memory;
* memory_levels (HICL memory/disk split) — memory vs disk reads per query;
* sketch_intervals M (TAS size)         — sketch memory vs false-positive
  rate (candidates that survive TAS but die at the APL check).

Run:  python examples/index_tuning.py
"""

import time

from repro import CheckInGenerator, GATConfig, GATIndex, GATSearchEngine, GeneratorConfig
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.index.gat.hicl import memory_level_budget

config = GeneratorConfig(
    n_users=600,
    n_venues=2000,
    vocabulary_size=800,
    width_km=25.0,
    height_km=20.0,
    checkins_per_user_mean=14.0,
    seed=5,
)
db = CheckInGenerator(config).generate(name="tuning-city")
queries = QueryWorkloadGenerator(db, WorkloadConfig(seed=11)).queries(4)
K = 9


def run_batch(engine):
    t0 = time.perf_counter()
    tas_pruned = apl_pruned = disk_reads = 0
    for q in queries:
        stats = engine.execute(q, K).stats
        tas_pruned += stats.tas_pruned
        apl_pruned += stats.apl_pruned
        disk_reads += stats.disk_reads
    per_query = (time.perf_counter() - t0) / len(queries)
    return per_query, tas_pruned, apl_pruned, disk_reads


print(f"dataset: {len(db)} trajectories, {db.n_points()} points\n")

# ----------------------------------------------------------------------
# 1. Grid depth (Figure 8).
# ----------------------------------------------------------------------
print("1) grid depth (partition granularity)")
print(f"   {'depth':>5}  {'cells':>9}  {'s/query':>8}  {'index MB':>9}")
for depth in (4, 5, 6, 7):
    index = GATIndex.build(db, GATConfig(depth=depth, memory_levels=min(6, depth)))
    engine = GATSearchEngine(index)
    per_query, *_ = run_batch(engine)
    side = 1 << depth
    print(f"   {depth:>5}  {side}x{side:<5}  {per_query:8.4f}  "
          f"{index.memory_cost_bytes() / 1e6:9.2f}")

# ----------------------------------------------------------------------
# 2. HICL memory/disk split.
# ----------------------------------------------------------------------
print("\n2) HICL memory levels (rest goes to simulated disk)")
print(f"   {'mem levels':>10}  {'s/query':>8}  {'disk reads/query':>17}")
for memory_levels in (2, 4, 6):
    index = GATIndex.build(db, GATConfig(depth=6, memory_levels=memory_levels))
    engine = GATSearchEngine(index)
    per_query, _t, _a, disk_reads = run_batch(engine)
    print(f"   {memory_levels:>10}  {per_query:8.4f}  {disk_reads / len(queries):17.1f}")

budget_bytes = 64 * 1024
h = memory_level_budget(budget_bytes, len(db.vocabulary))
print(f"   (paper's budget formula: {budget_bytes} B over {len(db.vocabulary)} "
      f"activities -> keep {h} level(s) in memory)")

# ----------------------------------------------------------------------
# 3. TAS sketch intervals.
# ----------------------------------------------------------------------
print("\n3) TAS sketch intervals M (8*M bytes per trajectory)")
print(f"   {'M':>3}  {'TAS-pruned':>10}  {'APL-pruned (false pos.)':>24}")
for m in (1, 2, 4, 8):
    index = GATIndex.build(db, GATConfig(depth=6, memory_levels=6, sketch_intervals=m))
    engine = GATSearchEngine(index)
    _pq, tas_pruned, apl_pruned, _d = run_batch(engine)
    print(f"   {m:>3}  {tas_pruned:>10}  {apl_pruned:>24}")
print("\nlarger M catches more non-matches in memory (higher TAS-pruned,"
      "\nlower APL-pruned), at 8*M bytes per trajectory — the paper's trade-off.")
