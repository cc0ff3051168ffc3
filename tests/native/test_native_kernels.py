"""The C module (``repro/native``): its two ``hypot``s, and the build that
runs when its artifact is missing.

The walk orders its heap by MINDIST, the last step of which is
``math.hypot`` — CPython's own correctly rounded routine, not libm's.  One
differing last bit can reorder the heap and move every count, so the port
must equal ``math.hypot`` on every input the walk can meet, and on a wide
sample besides.  The validation round's distances are libm's ``hypot``,
which must equal NumPy's ``np.hypot`` — what the block distances were
before they moved to C — on the same sample, and through the block build.
"""

import math
import random

import numpy as np
from python_walk_oracle import c_axis_gaps

import repro.native as native
from repro.geometry.primitives import BoundingBox
from repro.geometry.grid import HierarchicalGrid


def test_hypot_equals_math_hypot_on_a_million_pairs():
    """10**6 seeded pairs whose magnitudes span 12 decades, either order."""
    rng = np.random.default_rng(20130408)
    xs = rng.random(1_000_000) * 10.0 ** rng.integers(-6, 7, 1_000_000)
    ys = rng.random(1_000_000) * 10.0 ** rng.integers(-6, 7, 1_000_000)
    c_hypot = native.lib.gat_hypot
    mismatches = [
        (x, y) for x, y in zip(xs.tolist(), ys.tolist()) if c_hypot(x, y) != math.hypot(x, y)
    ]
    assert mismatches == []


def test_hypot_equals_math_hypot_on_every_depth8_gap_pair():
    """Every nonzero (column gap, row gap) pair of a depth-8 grid — the gaps
    the walk computes from the grid's extents — seen from query points
    inside, on the edge of and outside the box."""
    grid = HierarchicalGrid(BoundingBox(-3.7, 12.25, 41.9, 77.0), 8)
    rng = random.Random(7)
    points = [(-3.7, 12.25), (41.9, 77.0), (-50.0, 200.0), (17.3, 44.1)]
    points += [(rng.uniform(-10, 50), rng.uniform(0, 90)) for _ in range(4)]
    c_hypot = native.lib.gat_hypot
    for point in points:
        gx, gy = c_axis_gaps(grid, 8, point)
        xs = [x for x in gx if x]
        ys = [y for y in gy if y]
        bad = [(x, y) for x in xs for y in ys if c_hypot(x, y) != math.hypot(x, y)]
        assert bad == [], point


def test_hypot_edge_values():
    for x, y in [(3.0, 4.0), (0.0, 0.0), (-3.0, 4.0), (5e-324, 5e-324), (1e308, 1e308),
                 (math.inf, 1.0), (1.0, -math.inf)]:
        assert native.lib.gat_hypot(x, y) == math.hypot(x, y)
    assert math.isnan(native.lib.gat_hypot(math.nan, 1.0))
    assert native.lib.gat_hypot(math.inf, math.nan) == math.inf  # as CPython


def _decade_pairs(n, seed=20130408):
    """*n* seeded pairs whose magnitudes span 12 decades, random signs."""
    rng = np.random.default_rng(seed)
    xs, ys = (
        rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-6, 7, n)
        for _ in range(2)
    )
    return xs, ys


EDGE_PAIRS = [(3.0, 4.0), (0.0, 0.0), (-3.0, 4.0), (5e-324, 5e-324), (1e308, 1e308),
              (math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (math.inf, math.nan)]


def test_round_hypot_equals_np_hypot_on_a_million_pairs():
    xs, ys = _decade_pairs(1_000_000)
    libm_hypot = native.lib.gat_libm_hypot
    got = np.array([libm_hypot(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    assert np.array_equal(got, np.hypot(xs, ys))


def test_round_hypot_edge_values():
    for x, y in EDGE_PAIRS:
        got, want = native.lib.gat_libm_hypot(x, y), float(np.hypot(x, y))
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, y)


def test_block_distances_equal_np_hypot():
    """The distances the C block covers evaluate — query minus point, then
    ``hypot`` — equal ``np.hypot`` over the same differences bit for bit,
    for coordinates across 12 decades: a ``threshold = inf`` cover writes
    every entry with ``mask != 0`` (here all of them: every point carries
    the one activity)."""
    from repro.core.kernels import QueryKernel, block_dmm, prepare_block
    from repro.core.query import Query, QueryPoint
    from repro.index.gat.apl import APLStore
    from repro.model.database import TrajectoryDatabase
    from repro.model.distance import EuclideanDistance
    from repro.model.trajectory import TrajectoryColumns
    from repro.model.vocabulary import Vocabulary
    from repro.storage.disk import SimulatedDisk

    xs, ys = _decade_pairs(40_000, seed=7)
    rows = [list(zip(xs[i::4].tolist(), ys[i::4].tolist())) for i in range(4)]
    columns = TrajectoryColumns.from_points(
        range(4), [[(x, y, (0,), None, None) for x, y in row] for row in rows]
    )
    store = APLStore(TrajectoryDatabase(columns, Vocabulary()), SimulatedDisk())
    qx, qy = _decade_pairs(3, seed=11)
    query = Query([QueryPoint(x, y, frozenset({0})) for x, y in zip(qx.tolist(), qy.tolist())])
    qk = QueryKernel(query, EuclideanDistance())
    block = prepare_block(qk, store.round(range(4), qk))
    block_dmm(qk, block)
    assert np.all(block.mask != 0)
    px, py = np.concatenate([xs[i::4] for i in range(4)]), np.concatenate([ys[i::4] for i in range(4)])
    assert np.array_equal(block.big, np.hypot(qx[:, None] - px, qy[:, None] - py))


def test_build_into_an_empty_directory_and_import(tmp_path):
    """A missing artifact is compiled (in a child interpreter) into the
    directory asked for, imported, and checked; a second load reuses it."""
    ffi, lib = native.load(tmp_path)
    artifact = tmp_path / native.ARTIFACT
    assert artifact.exists()
    assert [p.name for p in tmp_path.iterdir()] == [native.ARTIFACT]  # no build debris
    assert lib.gat_hypot(3.0, 4.0) == 5.0
    assert ffi.sizeof("gat_entry") == 40
    built = artifact.stat().st_mtime_ns
    native.load(tmp_path)
    assert artifact.stat().st_mtime_ns == built
