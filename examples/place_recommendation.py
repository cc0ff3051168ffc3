"""Place recommendation by comparing all four searchers.

The paper's second motivating application: given where a user wants to go
and what they want to do, find the travel histories of like-minded users.
This example runs the same query through GAT and all three baselines,
verifies they agree (they always must — they compute the same top-k), and
reports how much work each one did, the paper's central claim in
miniature.

Run:  python examples/place_recommendation.py
"""

import time

from repro import (
    CheckInGenerator,
    GATConfig,
    GATIndex,
    GATSearchEngine,
    GeneratorConfig,
    InvertedListSearch,
    IRTreeSearch,
    Query,
    RTreeSearch,
)
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig

# ----------------------------------------------------------------------
# A mid-sized synthetic city.
# ----------------------------------------------------------------------
config = GeneratorConfig(
    n_users=800,
    n_venues=2500,
    vocabulary_size=900,
    width_km=30.0,
    height_km=22.0,
    checkins_per_user_mean=16.0,
    seed=42,
)
db = CheckInGenerator(config).generate(name="reco-city")
print(f"city: {len(db)} trajectories, {db.n_points()} check-ins")

print("building indexes...")
t0 = time.perf_counter()
searchers = {
    "GAT": GATSearchEngine(GATIndex.build(db, GATConfig(depth=6, memory_levels=5))),
    "IL": InvertedListSearch(db),
    "RT": RTreeSearch(db),
    "IRT": IRTreeSearch(db),
}
print(f"  all four built in {time.perf_counter() - t0:.1f}s")

# ----------------------------------------------------------------------
# A realistic query: anchored at real check-ins, asking for the common
# activity types performed there (Table V defaults: |Q|=4, |q.Φ|=3).
# ----------------------------------------------------------------------
workload = QueryWorkloadGenerator(db, WorkloadConfig(seed=7))
query: Query = workload.query()
print("\nquery:")
for i, q in enumerate(query, start=1):
    acts = sorted(db.vocabulary.decode(q.activities))
    print(f"  q{i}: ({q.x:.2f}, {q.y:.2f}) km, activities {acts}")

# ----------------------------------------------------------------------
# Run everyone, verify agreement, compare work.
# ----------------------------------------------------------------------
k = 9
rankings = {}
print(f"\ntop-{k} by minimum match distance:")
for name, searcher in searchers.items():
    t0 = time.perf_counter()
    run = searcher.execute(query, k)
    elapsed = time.perf_counter() - t0
    rankings[name] = [round(r.distance, 6) for r in run.ranked]
    print(f"  {name:>3}: {elapsed * 1000:7.1f} ms   candidates={run.stats.candidates_retrieved}")

reference = rankings["IL"]
for name, distances in rankings.items():
    assert distances == reference, f"{name} disagreed with IL!"
print("\nall four methods returned identical top-k distances ✓")

best = searchers["GAT"].atsq(query, 3, explain=True)
print("\nrecommended reference trajectories (GAT, with matched stops):")
for rank, r in enumerate(best, start=1):
    tr = db.get(r.trajectory_id)
    print(f"  #{rank}: user trajectory {r.trajectory_id} "
          f"({len(tr)} check-ins), Dmm={r.distance:.2f}")
    for q, match in zip(query, r.matches):
        stops = [f"({tr[pos].x:.2f},{tr[pos].y:.2f})" for pos in match]
        print(f"       covers {sorted(db.vocabulary.decode(q.activities))} at {stops}")
