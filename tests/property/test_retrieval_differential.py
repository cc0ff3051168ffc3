"""Differential test: the C best-first walk and its Algorithm 2 bound
against the Python walk and bound they replaced (``python_walk_oracle.py``,
``bound_oracle.py``), and those against the per-cell ``frozenset`` walk
before them (``frozenset_hicl_oracle.py``).

All three are driven through the engine's round loop — ``retrieve`` then
Algorithm 2 — over random databases, grids (depths 1–8), queries, round
bounds and inserts.  The two bitmap walks must agree round by round on the
rows handed out, in order, on ``cells_popped`` and leaves, on each query
point's frontier, on ``queue_top_mdist`` and ``exhausted`` (``==`` on the
floats: MINDIST is bit-identical or the heap order drifts).  The Python
walk and the ``frozenset`` walk must agree on the **full pop sequence**
``(mdist, level, code, qi)``.  All three must agree on every round's
``D_lb``, on the round's candidates (the oracle hands out the trajectory
ids of its own id-keyed ITL, sorted by row within a leaf pop — the defined
order), and on the counted disk reads and pages of each query.  Each side
runs on its own freshly built index (own disk, own list cache) so the
accounting is independent.  Trajectory ids *descend* as rows ascend, so an
id-ordered or set-ordered harvest cannot pass for a row-ordered one.
"""

import random
from typing import List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

import bound_oracle
import frozenset_hicl_oracle as oracle_walk
from frozenset_hicl_oracle import OracleRetriever
from python_walk_oracle import PythonWalkRetriever, QueryBitmaps
from repro.core import pipeline
from repro.core.context import SearchStats
from repro.core.lower_bound import lower_bound_distance
from repro.core.match import INFINITY
from repro.core.query import Query, QueryPoint
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary

#: Activity ids 0..N_KNOWN-1 are in the vocabulary; GHOST is in no list at
#: any level (memory or disk: an all-zero bitmap / a counted miss).
N_KNOWN = 5
GHOST = 9
MAX_ROUNDS = 60

RawPoint = Tuple[float, float, Tuple[int, ...]]


class Case(NamedTuple):
    trajectories: List[List[RawPoint]]
    depth: int
    memory_levels: int
    queries: List[List[RawPoint]]
    batch: int = 2
    m: int = 3
    #: ``stop_mdist`` of round ``r`` is ``stops[r % len(stops)]``
    #: (``None`` = unbounded, the single-index path; finite = the sharded
    #: fan-out's merged threshold).
    stops: Tuple[Optional[float], ...] = (None,)
    clear_cache: bool = False
    #: Inserted after the first query ran — ``insert_trajectory`` on the
    #: production index, a fresh build over the grown database for the
    #: oracle, so stale or un-updated bitmaps cannot hide on both sides.
    #: Its points reuse indexed coordinates (same bounding box) and the
    #: first carries an activity (``add_point`` runs, dropping the warm
    #: list cache the fresh build does not have either).
    insert: Optional[List[RawPoint]] = None


def _build_index(case: Case, trajectories: List[List[RawPoint]]) -> GATIndex:
    vocabulary = Vocabulary(f"act{i}" for i in range(N_KNOWN))
    db = TrajectoryDatabase(
        [_trajectory(row, raw) for row, raw in enumerate(trajectories)], vocabulary
    )
    return GATIndex.build(db, GATConfig(depth=case.depth, memory_levels=case.memory_levels))


def _tid(row: int) -> int:
    """Non-contiguous, and descending where rows ascend."""
    return 10_000 - 37 * row


def _trajectory(row: int, raw: List[RawPoint]) -> ActivityTrajectory:
    return ActivityTrajectory(
        _tid(row), [TrajectoryPoint(x, y, frozenset(acts)) for x, y, acts in raw]
    )


def _run_rounds(case: Case, retriever, lower_bound, state=lambda: ()):
    rounds = []
    for r in range(MAX_ROUNDS):
        stop = case.stops[r % len(case.stops)]
        new = retriever.retrieve(case.batch, INFINITY if stop is None else stop)
        rounds.append((new, lower_bound(), *state()))
        if retriever.exhausted:
            break
    return rounds


def _walk_state(retriever, counters, frontiers):
    """What the two bitmap walks must agree on after every round."""
    return lambda: (
        counters.cells_popped,
        counters.leaf_cells_visited,
        [f.nearest(len(f)) for f in frontiers()],
        retriever.queue_top_mdist(),
        retriever.exhausted,
    )


def _hicl_cache(stats):
    return stats.hicl_cache_hits, stats.hicl_cache_lookups


def _drive_c_walk(case: Case, index: GATIndex, query: Query):
    with index.disk.track() as disk:
        stats = SearchStats()
        retriever = pipeline.CandidateRetriever(index, query, stats)
        rounds = _run_rounds(
            case,
            retriever,
            lambda: lower_bound_distance(retriever, case.m),
            _walk_state(retriever, stats, lambda: bound_oracle.frontiers(retriever)),
        )
    assert stats.candidates_retrieved == sum(len(r[0]) for r in rounds)
    return rounds, (disk.reads, disk.pages_read), _hicl_cache(stats)


def _drive_python_walk(case: Case, index: GATIndex, query: Query):
    with index.disk.track() as disk:
        retriever = PythonWalkRetriever(index, query)
        rounds = _run_rounds(
            case,
            retriever,
            lambda: bound_oracle.lower_bound_distance(
                retriever.frontiers(), retriever.bitmaps, case.m
            ),
            _walk_state(retriever, retriever, retriever.frontiers),
        )
    assert retriever.cells_popped == len(retriever.pops)
    return retriever.pops, rounds, (disk.reads, disk.pages_read), _hicl_cache(retriever.stats)


def _drive_oracle(case: Case, index: GATIndex, query: Query):
    with index.disk.track() as disk:
        retriever = OracleRetriever(index, query)
        rounds = _run_rounds(case, retriever, lambda: retriever.lower_bound(case.m))
    return retriever.pops, rounds, (disk.reads, disk.pages_read)


def _check(case: Case) -> None:
    c_index, py_index, oracle = (_build_index(case, case.trajectories) for _ in range(3))
    for n, raw in enumerate(case.queries):
        query = Query([QueryPoint(x, y, frozenset(acts)) for x, y, acts in raw])
        if case.clear_cache:
            for index in (c_index, py_index, oracle):
                index.hicl.clear_cache()
        got_rounds, got_io, got_hicl = _drive_c_walk(case, c_index, query)
        py_pops, py_rounds, py_io, py_hicl = _drive_python_walk(case, py_index, query)
        want_pops, want_rounds, want_io = _drive_oracle(case, oracle, query)
        assert got_rounds == py_rounds
        assert py_pops == want_pops
        ids = c_index.apl.image.ids
        assert [(ids[new].tolist() if new else [], bound) for new, bound, *_ in got_rounds] == want_rounds
        assert got_io == py_io == want_io
        # Both bitmap walks load a (query point, level) once per query, so
        # their HICL cache counts agree.  The frozenset oracle is left out
        # of this one comparison: it looks a list up per popped cell by
        # design, so its hit and lookup counts are its own (its reads,
        # compared above, are not).
        assert got_hicl == py_hicl
        if n == 0 and case.insert is not None:
            inserted = _trajectory(len(case.trajectories), case.insert)
            c_index.insert_trajectory(inserted)
            py_index.insert_trajectory(inserted)
            oracle = _build_index(case, case.trajectories + [case.insert])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_coord = st.integers(0, 40).map(lambda v: v * 2.5)  # duplicates and cell edges
_known_acts = st.sets(st.integers(0, N_KNOWN - 1), max_size=3).map(lambda s: tuple(sorted(s)))
_query_acts = st.sets(
    st.sampled_from(list(range(N_KNOWN)) + [GHOST]), min_size=1, max_size=3
).map(lambda s: tuple(sorted(s)))


@st.composite
def _cases(draw, max_depth: int = 8) -> Case:
    trajectories = draw(
        st.lists(
            st.lists(st.tuples(_coord, _coord, _known_acts), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    depth = draw(st.integers(1, max_depth))
    # Query points inside, on the edge of, and well outside the box.
    query_coord = st.integers(-8, 48).map(lambda v: v * 2.5)
    queries = draw(
        st.lists(
            st.lists(st.tuples(query_coord, query_coord, _query_acts), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    indexed = st.sampled_from([(x, y) for raw in trajectories for x, y, _acts in raw])
    insert = draw(
        st.none()
        | st.builds(
            lambda head, acts, tail: [(*head, acts or (0,))] + [(*xy, a) for xy, a in tail],
            indexed,
            _known_acts,
            st.lists(st.tuples(indexed, _known_acts), max_size=2),
        )
    )
    return Case(
        trajectories=trajectories,
        depth=depth,
        memory_levels=draw(st.integers(0, depth)),
        queries=queries,
        batch=draw(st.integers(1, 6)),
        m=draw(st.integers(1, 4)),
        stops=tuple(
            draw(st.lists(st.none() | st.integers(0, 60).map(float), min_size=1, max_size=4))
        ),
        clear_cache=draw(st.booleans()),
        insert=insert,
    )


def _spread(n_trajectories: int = 24, seed: int = 7) -> List[List[RawPoint]]:
    """A fixed database for the pinned examples: enough trajectories that a
    query runs many rounds with finite bounds; corner points fix the box."""
    rng = random.Random(seed)
    trajectories: List[List[RawPoint]] = [[(0.0, 0.0, (0,)), (100.0, 100.0, (1,)), (99.0, 1.0, ())]]
    for _ in range(n_trajectories):
        trajectories.append(
            [
                (
                    rng.randrange(0, 101, 5) * 1.0,
                    rng.randrange(0, 101, 5) * 1.0,
                    tuple(sorted(rng.sample(range(N_KNOWN), rng.randint(1, 3)))),
                )
                for _ in range(rng.randint(2, 5))
            ]
        )
    return trajectories


_SPREAD = _spread()
_TWO_POINT_QUERY = [(10.0, 10.0, (0, 1)), (90.0, 70.0, (2,))]
#: 70 trajectories posting activity 0 in one leaf: a list long enough that
#: CPython's iteration order over the ``set`` of its ids — the order the
#: retired harvest emitted — is neither ascending by id nor by row.
_CROWD = [[(0.0, 0.0, (1,)), (100.0, 100.0, (1,))]] + [[(50.0, 50.0, (0,))] for _ in range(70)]
_CROWD_IDS = [_tid(row) for row in range(1, len(_CROWD))]
assert list(set(_CROWD_IDS)) not in (sorted(_CROWD_IDS), sorted(_CROWD_IDS, reverse=True))


@given(_cases())
@settings(max_examples=120, deadline=None)
# depth 1: the level-1 cells are leaves, nothing is ever expanded
@example(Case(_SPREAD, depth=1, memory_levels=1, queries=[_TWO_POINT_QUERY]))
@example(Case(_SPREAD, depth=1, memory_levels=0, queries=[_TWO_POINT_QUERY]))
# depth 8 with the paper's split: levels 7 and 8 are disk-resident
@example(Case(_SPREAD, depth=8, memory_levels=6, queries=[_TWO_POINT_QUERY, _TWO_POINT_QUERY]))
# depth 8, finite bounds, and an insert between the queries
@example(
    Case(
        _SPREAD,
        depth=8,
        memory_levels=6,
        queries=[_TWO_POINT_QUERY, _TWO_POINT_QUERY],
        batch=1,
        stops=(3.0, None, 40.0),
        insert=[(10.0, 10.0, (0, 1)), (90.0, 70.0, (2,))],
    )
)
# an activity no list holds, alone and beside a present one
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[[(50.0, 50.0, (GHOST,))]]))
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[[(50.0, 50.0, (0, GHOST))]]))
# a query point outside the bounding box (and one on its corner)
@example(Case(_SPREAD, depth=4, memory_levels=3, queries=[[(-40.0, 250.0, (0, 1)), (0.0, 0.0, (1,))]]))
# stop_mdist-bounded rounds: the sharded fan-out's merged threshold
@example(Case(_SPREAD, depth=5, memory_levels=3, queries=[_TWO_POINT_QUERY], batch=1, stops=(0.0, 5.0, 30.0, None)))
# HICL.clear_cache() between queries (cold accounting)
@example(Case(_SPREAD, depth=5, memory_levels=3, queries=[_TWO_POINT_QUERY] * 3, clear_cache=True))
# insert_trajectory after bitmaps were built and cached, memory and disk levels
@example(
    Case(
        _SPREAD,
        depth=5,
        memory_levels=3,
        queries=[[(50.0, 50.0, (3, 4))], [(50.0, 50.0, (3, 4))]],
        insert=[(50.0, 50.0, (3, 4)), (0.0, 0.0, (4,))],
    )
)
# one leaf pop handing out a 70-row list (whole, and across the batch bound)
@example(Case(_CROWD, depth=3, memory_levels=2, queries=[[(40.0, 40.0, (0,))]], batch=100))
@example(Case(_CROWD, depth=3, memory_levels=2, queries=[[(40.0, 40.0, (0, 1))]], batch=3))
def test_bitmap_retrieval_equals_frozenset_walk(case):
    _check(case)


#: Leaves holding activity 0 alone, 1 alone, both, and 2 with 4: a point
#: asking (0, 1, 2) pops leaves holding one or two of its three activities.
_PARTIAL = [
    [(0.0, 0.0, (3,)), (100.0, 100.0, (3,))],
    [(20.0, 20.0, (0,)), (80.0, 80.0, (1,))],
    [(40.0, 20.0, (1,)), (60.0, 60.0, (0, 1))],
    [(80.0, 20.0, (0, 3)), (60.0, 60.0, (1,))],
    [(20.0, 80.0, (2, 4)), (45.0, 55.0, (0, 2))],
]


@pytest.mark.parametrize("memory_levels", [4, 2])
def test_leaves_holding_some_of_a_points_activities(memory_levels):
    """The C harvest searches only the activities a popped leaf's row
    holds: candidates, rounds and reads equal the Python walk's, on leaves
    that hold some, but not all, of a query point's activities."""
    query = [(50.0, 50.0, (0, 1, 2)), (10.0, 90.0, (1, 4))]
    case = Case(_PARTIAL, depth=4, memory_levels=memory_levels, queries=[query, query], batch=1)
    _check(case)
    index = _build_index(case, case.trajectories)
    retriever = PythonWalkRetriever(
        index, Query([QueryPoint(x, y, frozenset(acts)) for x, y, acts in query])
    )
    while not retriever.exhausted:
        retriever.retrieve(1)
    partial = 0
    for _mdist, level, code, qi in retriever.pops:
        if level == case.depth:
            held = [a for a in query[qi][2] if index.itl.rows_with(code, a)]
            partial += 0 < len(held) < len(query[qi][2])
    assert partial >= 3


@given(_cases(max_depth=5))
@settings(max_examples=60, deadline=None)
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[[(50.0, 50.0, (0, GHOST)), (0.0, 0.0, (2, 3, 4))]]))
def test_bitmap_probes_equal_frozenset_walkers(case):
    """Cell by cell: the nibble is ``children_with_any``, its bits are
    ``cell_has_any``, the overlap mask is ``cell_activity_overlap``, and
    the root nibble is ``cells_with_any`` at level 1."""
    hicl = _build_index(case, case.trajectories).hicl
    query = Query([QueryPoint(x, y, frozenset(acts)) for x, y, acts in case.queries[0]])
    view = QueryBitmaps(hicl, query)
    for qi, q in enumerate(query):
        roots = [j for j in range(4) if view.child_nibble(qi, 1, 0) >> j & 1]
        assert roots == sorted(oracle_walk.cells_with_any(hicl, q.activities, 1))
        for level in range(1, case.depth + 1):
            for code in range(4**level):
                mask = view.overlap_mask(qi, level, code)
                overlap = {a for j, a in enumerate(view.activities[qi]) if mask >> j & 1}
                assert overlap == oracle_walk.cell_activity_overlap(hicl, code, q.activities, level)
                assert bool(mask) == oracle_walk.cell_has_any(hicl, code, q.activities, level)
                if level < case.depth:
                    nibble = view.child_nibble(qi, level + 1, code)
                    kids = [(code << 2) + j for j in range(4) if nibble >> j & 1]
                    assert kids == oracle_walk.children_with_any(hicl, code, level, q.activities)
