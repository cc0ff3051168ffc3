"""Differential test: the array validation chain vs the object chain.

``ValidationStage.admit_batch`` answers a round with one bool mask per
filter over the APL row store; ``object_chain_oracle.py`` walks the same
round one ``Candidate`` at a time through a ``TrajectorySketch``, a fetched
posting dict and ``order_feasible``.  Random databases, queries and rounds
go through both, for every chain the ablation bench composes plus MIB with
no APL before it, and must agree with ``==`` on the survivors (ids, in
order), on the three pruning counters and on the counted reads.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from object_chain_oracle import (
    ObjectAPLFilter,
    ObjectMIBFilter,
    ObjectTASFilter,
    object_admit_batch,
)

from repro.core.context import ExecutionContext
from repro.core.evaluator import MatchEvaluator
from repro.core.pipeline import APLFilter, MIBFilter, TASFilter, ValidationStage
from repro.core.query import Query, QueryPoint
from repro.index.gat.apl import APLStore
from repro.index.gat.tas import SketchTable, optimal_intervals
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.storage.disk import SimulatedDisk

#: The ablation bench's four chains, then MIB without an APL filter before
#: it (``matching_index_bounds`` then sees partially covered query points).
CHAINS = (
    ("tas", "apl", "mib"),
    ("apl", "mib"),
    ("tas", "apl"),
    ("apl", "tas", "mib"),
    ("mib",),
    ("tas", "mib"),
)

acts_st = st.frozensets(st.integers(min_value=0, max_value=7), max_size=3)
trajectory_st = st.lists(acts_st, min_size=1, max_size=8)
db_st = st.lists(trajectory_st, min_size=1, max_size=8)
query_st = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=8), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


def _trajectories(raws, first_id=10):
    """Ids are not rows: trajectory ``first_id + 3·i`` sits in row ``i``."""
    return [
        ActivityTrajectory(
            first_id + 3 * i, [TrajectoryPoint(float(j), 0.0, frozenset(a)) for j, a in enumerate(raw)]
        )
        for i, raw in enumerate(raws)
    ]


def _assert_chains_agree(raws, qraw, m, picks):
    trajectories = _trajectories(raws)
    query = Query([QueryPoint(0.0, 0.0, frozenset(acts)) for acts in qraw])
    # A round is any duplicate-free sequence of stored ids, in any order.
    ids = [tr.trajectory_id for tr in trajectories]
    round_ids = list(dict.fromkeys(ids[p % len(ids)] for p in picks))

    disk, oracle_disk = SimulatedDisk(), SimulatedDisk()
    # Built in two steps, so rows past the first arrive through ``store``.
    apl = APLStore.build(trajectories[:1], disk)
    for trajectory in trajectories[1:]:
        apl.store(trajectory)
    sketches = SketchTable(apl, m)
    oracle_apl = APLStore.build(trajectories, oracle_disk)
    array_filters = {
        "tas": TASFilter(sketches),
        "apl": APLFilter(apl, None),
        "mib": MIBFilter(),
    }
    object_filters = {
        "tas": ObjectTASFilter(trajectories, m),
        "apl": ObjectAPLFilter(oracle_apl),
        "mib": ObjectMIBFilter(trajectories),
    }
    for trajectory in trajectories:
        assert sketches[trajectory.trajectory_id].intervals == optimal_intervals(
            sorted(trajectory.activity_union), m
        )

    for chain in CHAINS:
        ctx = ExecutionContext(
            query=query, k=1, order_sensitive="mib" in chain, evaluator=MatchEvaluator()
        )
        disk.reset_stats()
        oracle_disk.reset_stats()
        stage = ValidationStage([array_filters[name] for name in chain], apl)
        survivors = stage.admit_batch(ctx, [ids.index(tid) for tid in round_ids])
        want_ids, want_pruned = object_admit_batch(
            [object_filters[name] for name in chain], query, round_ids
        )
        assert survivors.ids.tolist() == want_ids, chain
        assert survivors.rows.tolist() == [ids.index(tid) for tid in want_ids], chain
        got_pruned = {
            field: getattr(ctx.stats, field)
            for field in ("tas_pruned", "apl_pruned", "mib_pruned")
        }
        assert got_pruned == want_pruned, chain
        assert disk.stats == oracle_disk.stats, chain
        if survivors._lookup is not None:  # what block assembly will reuse
            fresh = apl.round(survivors.rows.tolist(), ctx.activities).lookup()
            assert np.array_equal(survivors.lookup(), fresh), chain


@given(db_st, query_st, st.integers(1, 3), st.lists(st.integers(0, 63), max_size=12))
@settings(max_examples=300, deadline=None)
# Fewer distinct activities than sketch intervals: a padded sketch row.
@example([[{1}, {1}], [{2, 5}, {7}]], [{1}], 3, [0, 1])
# A trajectory whose points all carry empty activity sets: zero keys in
# its row, first in the store, between others, and last.
@example([[set(), set()], [{1, 2}], [set()], [{2}, {1}], [set()]], [{1}, {2}], 2, [4, 0, 3, 2, 1])
# A query activity occurring nowhere (8 > every stored id): the last row's
# lookup runs past the end of the key array, onto the sentinel.
@example([[{1}], [{7, 3}]], [{8}, {7}], 2, [1, 0])
@example([[{1}], [{7, 3}]], [{8}], 1, [0, 1])
# Without an APL filter MIB meets a query point with only *some* of its
# activities present (its bounds are not None) ...
@example([[{1}, {4}, {2}], [{2}, {1}]], [{1, 6}, {2, 3}], 2, [0, 1])
# ... and one with none present (None: reject).
@example([[{1}, {2}], [{2}, {5}, {1}]], [{1}, {3, 4}, {2}], 2, [0, 1])
# lb == ub ties in the prefix test: both query points match one point only,
# the same one, or the later one first.
@example([[{0}, {1, 2}, {0}], [{2}, {1}], [{1}, {2}]], [{1}, {2}], 2, [0, 1, 2])
# An empty round.
@example([[{1}]], [{1}], 2, [])
# A round whose every candidate dies at TAS.
@example([[{1}, {2}], [{2}], [{0, 1}]], [{6}, {1}], 1, [0, 1, 2])
def test_array_chain_equals_object_chain(raws, qraw, m, picks):
    _assert_chains_agree(raws, qraw, m, picks)
