"""The C module (``repro/native``): its ``math.hypot`` port, and the build
that runs when its artifact is missing.

The walk orders its heap by MINDIST, the last step of which is
``math.hypot`` — CPython's own correctly rounded routine, not libm's.  One
differing last bit can reorder the heap and move every count, so the port
must equal ``math.hypot`` on every input the walk can meet, and on a wide
sample besides.
"""

import math
import random

import numpy as np

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
    """Every nonzero (column gap, row gap) pair of a depth-8 grid, seen from
    query points inside, on the edge of and outside the box."""
    grid = HierarchicalGrid(BoundingBox(-3.7, 12.25, 41.9, 77.0), 8)
    leaf = grid.leaf_level
    rng = random.Random(7)
    points = [(-3.7, 12.25), (41.9, 77.0), (-50.0, 200.0), (17.3, 44.1)]
    points += [(rng.uniform(-10, 50), rng.uniform(0, 90)) for _ in range(4)]
    c_hypot = native.lib.gat_hypot
    for point in points:
        gx, gy = leaf.axis_gaps(point)
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
