"""The row-addressed ITL against the id-keyed one it replaced
(``itl_oracle.py``): list for list, rows mapped to trajectory ids, after a
build and again after a burst of ``insert_trajectory`` — the production
index appends to its lists, the oracle is rebuilt over the grown database.
"""

from typing import List, Tuple

from hypothesis import example, given, settings, strategies as st

import itl_oracle
from repro.data.presets import dataset_from_preset
from repro.index.gat.index import GATConfig, GATIndex
from repro.index.gat.tas import sketch_memory_bytes
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary

N_ACTIVITIES = 5
RawPoint = Tuple[float, float, Tuple[int, ...]]

_coord = st.integers(0, 16).map(lambda v: v * 6.25)  # duplicates and cell edges
_acts = st.sets(st.integers(0, N_ACTIVITIES - 1), max_size=3).map(lambda s: tuple(sorted(s)))
_trajectory = st.lists(st.tuples(_coord, _coord, _acts), min_size=1, max_size=5)


def _database(raws: List[List[RawPoint]]) -> TrajectoryDatabase:
    """Ids are not rows: row ``i`` holds trajectory ``500 - 7·i``."""
    return TrajectoryDatabase(
        [
            ActivityTrajectory(
                500 - 7 * row, [TrajectoryPoint(x, y, frozenset(a)) for x, y, a in raw]
            )
            for row, raw in enumerate(raws)
        ],
        Vocabulary(f"act{i}" for i in range(N_ACTIVITIES)),
    )


def _assert_same_lists(index: GATIndex) -> None:
    oracle = itl_oracle.ITL.build(index.db, index.grid)
    ids = index.apl.image.ids.tolist()
    n_lists = 0
    for code in range(index.grid.leaf_level.n_cells):
        n_lists += len(oracle.activities_in(code))
        for activity in range(N_ACTIVITIES):
            rows = index.itl.rows_with(code, activity)
            assert list(rows) == sorted(set(rows))  # ascending, no duplicate row
            want = oracle.trajectories_with(code, activity)
            assert sorted(ids[row] for row in rows) == list(want)
    assert len(index.itl) == n_lists
    assert index.itl.memory_cost_bytes() == oracle.memory_cost_bytes()


# The corner points keep every insert inside the bounding box.
_CORNERS = [(0.0, 0.0, (0,)), (100.0, 100.0, ())]


@given(
    st.lists(_trajectory, max_size=6),
    st.lists(_trajectory, max_size=4),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
# a point without activities: posted nowhere, built or inserted
@example([[(50.0, 50.0, ()), (50.0, 50.0, (1,))]], [[(25.0, 25.0, ())]], 3)
# two points of one trajectory in one leaf, same activity: one row, once
@example([[(50.0, 50.0, (1, 2)), (50.5, 50.5, (2,))]], [[(75.0, 75.0, (3,)), (75.5, 75.5, (3,))]], 3)
# a leaf shared by every trajectory, built and inserted
@example([[(10.0, 10.0, (4,))]] * 5, [[(10.0, 10.0, (4,)), (90.0, 90.0, (0,))]] * 3, 2)
def test_row_lists_equal_id_lists(built, inserted, depth):
    config = GATConfig(depth=depth, memory_levels=depth)
    index = GATIndex.build(_database([_CORNERS] + built), config)
    _assert_same_lists(index)
    for raw in inserted:
        row = len(index.db)
        points = [TrajectoryPoint(x, y, frozenset(a)) for x, y, a in raw]
        index.insert_trajectory(ActivityTrajectory(500 - 7 * row, points))
    _assert_same_lists(index)


def test_memory_cost_is_the_oracles_on_the_la_preset():
    """Figure 8's ITL term — 8 bytes per posted entry, 16 per list — does
    not move with the representation."""
    db = dataset_from_preset("la", scale=0.01)
    index = GATIndex.build(db, GATConfig(depth=6, memory_levels=5))
    oracle = itl_oracle.ITL.build(db, index.grid)
    assert index.itl.memory_cost_bytes() == oracle.memory_cost_bytes() > 0
    assert index.memory_cost_bytes() == (
        index.hicl.memory_cost_bytes()
        + oracle.memory_cost_bytes()
        + sketch_memory_bytes(len(db), index.config.sketch_intervals)
    )
