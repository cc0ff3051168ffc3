"""Unit tests for the Trajectory Activity Sketch (TAS)."""

import itertools

import pytest

from repro.index.gat.apl import APLStore
from repro.index.gat.tas import (
    SketchTable,
    TrajectorySketch,
    optimal_intervals,
    sketch_memory_bytes,
)
from repro.storage.disk import SimulatedDisk


class TestOptimalIntervals:
    def test_empty(self):
        assert optimal_intervals([], 3) == ()

    def test_fewer_ids_than_intervals(self):
        assert optimal_intervals([4, 9], 3) == ((4, 4), (9, 9))

    def test_single_interval_spans_all(self):
        assert optimal_intervals([1, 5, 9], 1) == ((1, 9),)

    def test_splits_at_largest_gaps(self):
        # Gaps: 1-2:1, 2-10:8, 10-11:1, 11-30:19. Two intervals -> split at 19.
        assert optimal_intervals([1, 2, 10, 11, 30], 2) == ((1, 11), (30, 30))
        # Three intervals -> split at 19 and 8.
        assert optimal_intervals([1, 2, 10, 11, 30], 3) == ((1, 2), (10, 11), (30, 30))

    def test_duplicates_removed(self):
        assert optimal_intervals([3, 3, 7, 7], 2) == ((3, 3), (7, 7))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            optimal_intervals([5, 1], 2)

    def test_zero_intervals_rejected(self):
        with pytest.raises(ValueError):
            optimal_intervals([1], 0)

    def test_optimality_against_bruteforce(self):
        """The top-gap split must minimise total span over ALL possible
        contiguous partitions (the paper's optimality claim)."""
        import random

        rng = random.Random(8)

        def brute_best(ids, m):
            best = float("inf")
            n = len(ids)
            for cuts in itertools.combinations(range(1, n), min(m - 1, n - 1)):
                bounds = [0, *cuts, n]
                span = sum(
                    ids[bounds[i + 1] - 1] - ids[bounds[i]]
                    for i in range(len(bounds) - 1)
                )
                best = min(best, span)
            return best

        for _ in range(40):
            n = rng.randint(2, 10)
            ids = sorted(rng.sample(range(100), n))
            m = rng.randint(1, 4)
            got = sum(hi - lo for lo, hi in optimal_intervals(ids, m))
            want = brute_best(ids, m)
            assert got == want, (ids, m)


class TestSketchCoverage:
    def test_figure2_sketches(self):
        """Figure 2(iii): Tr1 -> [a,b][c,e]; Tr2 -> [a,c][d,f]; Tr3 -> [b,c][e,f]
        with the letters a..f as IDs 0..5."""
        a, b, c, d, e, f = range(6)
        tr1 = TrajectorySketch.from_activities({a, b, c, d, e}, 2)
        tr2 = TrajectorySketch.from_activities({a, b, c, d, e, f}, 2)
        tr3 = TrajectorySketch.from_activities({b, c, e, f}, 2)
        # Contiguous runs: the 2-interval sketch of 0..4 has total span 3.
        assert tr1.covers_all({a, b, c, d, e})
        assert tr3.intervals == ((b, c), (e, f))

    def test_no_false_dismissals(self):
        """Every activity actually present must be covered (superset
        guarantee of Section V-C)."""
        import random

        rng = random.Random(9)
        for _ in range(50):
            ids = set(rng.sample(range(200), rng.randint(1, 20)))
            sketch = TrajectorySketch.from_activities(ids, rng.randint(1, 4))
            for a in ids:
                assert sketch.covers(a)

    def test_rejects_outside_ids(self):
        sketch = TrajectorySketch.from_activities({10, 11, 50}, 2)
        assert not sketch.covers(5)
        assert not sketch.covers(30)
        assert not sketch.covers(51)

    def test_false_positive_inside_interval(self):
        """IDs inside an interval but absent from the trajectory are
        (acceptably) reported as covered — the APL check removes them."""
        sketch = TrajectorySketch.from_activities({10, 12}, 1)
        assert sketch.covers(11)  # false positive by design

    def test_covers_all_fails_on_missing(self):
        sketch = TrajectorySketch.from_activities({1, 2, 3}, 1)
        assert sketch.covers_all({1, 3})
        assert not sketch.covers_all({1, 9})

    def test_more_intervals_tighter(self):
        ids = {1, 2, 50, 51, 100}
        spans = [
            TrajectorySketch.from_activities(ids, m).total_span() for m in (1, 2, 3)
        ]
        assert spans[0] >= spans[1] >= spans[2]


class TestBuildAndCost:
    def test_build_sketches_covers_unions(self, small_db):
        sketches = SketchTable(APLStore.build(small_db, SimulatedDisk()), 2)
        assert len(sketches) == len(small_db)
        for tr in small_db:
            sketch = sketches[tr.trajectory_id]
            assert sketch.covers_all(tr.activity_union)
            # The table's rows are the per-trajectory construction, exactly.
            assert sketch.intervals == optimal_intervals(sorted(tr.activity_union), 2)

    def test_memory_cost_formula(self):
        # The paper: 8 bytes per interval, M intervals, N trajectories.
        assert sketch_memory_bytes(1000, 4) == 32_000
