"""Unit tests for the GAT search engine (Algorithm 1)."""

import math

import pytest

from repro.core.engine import GATSearchEngine
from repro.core.evaluator import MatchEvaluator
from repro.core.query import Query, QueryPoint
from repro.index.gat.index import GATConfig, GATIndex


@pytest.fixture(scope="module")
def engine(small_db):
    index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
    return GATSearchEngine(index)


def _query_from(db, rng_seed=0, nq=2, na=2):
    import random

    rng = random.Random(rng_seed)
    while True:
        tr = db.trajectories[rng.randrange(len(db))]
        pts = [p for p in tr if p.activities]
        if len(pts) >= nq:
            qps = []
            for p in rng.sample(pts, nq):
                acts = rng.sample(sorted(p.activities), min(na, len(p.activities)))
                qps.append(QueryPoint(p.x, p.y, frozenset(acts)))
            return Query(qps)


class TestParameters:
    def test_bad_batch_rejected(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=4, memory_levels=4))
        with pytest.raises(ValueError):
            GATSearchEngine(index, retrieval_batch=0)


class TestATSQ:
    def test_results_sorted_and_distinct(self, engine, small_db):
        q = _query_from(small_db, 1)
        results = engine.atsq(q, k=5)
        dists = [r.distance for r in results]
        assert dists == sorted(dists)
        ids = [r.trajectory_id for r in results]
        assert len(ids) == len(set(ids))

    def test_matches_exhaustive_scan(self, engine, small_db):
        """The engine's top-k distances must equal a brute-force scan."""
        ev = MatchEvaluator()
        for seed in range(5):
            q = _query_from(small_db, seed)
            brute = sorted(
                ev.dmm(q, tr) for tr in small_db if not math.isinf(ev.dmm(q, tr))
            )[:5]
            got = [r.distance for r in engine.atsq(q, k=5)]
            assert got == pytest.approx(brute)

    def test_distances_verifiable(self, engine, small_db):
        ev = MatchEvaluator()
        q = _query_from(small_db, 3)
        for r in engine.atsq(q, k=3):
            assert r.distance == pytest.approx(ev.dmm(q, small_db.get(r.trajectory_id)))

    def test_k_larger_than_matches(self, engine, small_db):
        q = _query_from(small_db, 4)
        results = engine.atsq(q, k=10_000)
        assert all(not math.isinf(r.distance) for r in results)

    def test_explain_returns_matches(self, engine, small_db):
        q = _query_from(small_db, 5)
        results = engine.atsq(q, k=2, explain=True)
        for r in results:
            assert r.matches is not None
            assert len(r.matches) == len(q)
            tr = small_db.get(r.trajectory_id)
            for qp, match in zip(q, r.matches):
                covered = set()
                for pos in match:
                    covered |= tr[pos].activities
                assert qp.activities <= covered

    def test_stats_populated(self, small_db):
        # A fresh engine so the shared HICL/APL caches are cold — disk
        # reads on a warm engine can legitimately drop to zero.
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        fresh = GATSearchEngine(index)
        q = _query_from(small_db, 6)
        stats = fresh.execute(q, k=3).stats
        assert stats.rounds >= 1
        assert stats.cells_popped > 0
        assert stats.candidates_retrieved > 0
        assert stats.disk_reads > 0  # APL fetches at minimum


class TestOATSQ:
    def test_matches_exhaustive_scan(self, engine, small_db):
        ev = MatchEvaluator()
        for seed in range(4):
            q = _query_from(small_db, seed)
            dists = []
            for tr in small_db:
                d = ev.dmom(q, tr)
                if not math.isinf(d):
                    dists.append(d)
            brute = sorted(dists)[:4]
            got = [r.distance for r in engine.oatsq(q, k=4)]
            assert got == pytest.approx(brute)

    def test_oatsq_at_least_atsq_distance(self, engine, small_db):
        q = _query_from(small_db, 9)
        a = engine.atsq(q, k=1)
        o = engine.oatsq(q, k=1)
        if a and o:
            assert o[0].distance >= a[0].distance - 1e-9

    def test_explain(self, engine, small_db):
        q = _query_from(small_db, 10)
        results = engine.oatsq(q, k=2, explain=True)
        for r in results:
            assert r.matches is not None
            flat = [pos for match in r.matches for pos in match]
            # Order constraint: max of each match <= min of the next.
            for i in range(len(r.matches) - 1):
                if r.matches[i] and r.matches[i + 1]:
                    assert max(r.matches[i]) <= min(r.matches[i + 1])


class TestAblationSwitches:
    def test_no_tas_same_results(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        with_tas = GATSearchEngine(index, use_tas=True)
        without = GATSearchEngine(index, use_tas=False)
        q = _query_from(small_db, 11)
        a = [(r.trajectory_id, round(r.distance, 9)) for r in with_tas.atsq(q, 5)]
        b = [(r.trajectory_id, round(r.distance, 9)) for r in without.atsq(q, 5)]
        assert a == b

    @pytest.mark.parametrize("order_sensitive", [False, True])
    def test_no_tas_block_equals_the_scalar_oracle(self, small_db, order_sensitive):
        """Without the sketch in front, the key lookup alone decides the
        APL filter: a query pairing an activity with the widest id the
        database holds answers like the scalar kernel, counters and all."""
        from dataclasses import asdict

        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        widest = int(small_db.columns.activities.max())
        tr = next(tr for tr in small_db if widest in tr.activity_union)
        p = next(p for p in tr if p.activities)
        q = Query([
            QueryPoint(p.x, p.y, frozenset({min(p.activities)})),
            QueryPoint(p.x + 0.1, p.y, frozenset({widest})),
        ])
        runs = {}
        for kernel in ("block", "scalar"):
            engine = GATSearchEngine(index, use_tas=False, apl_cache_size=0, kernel=kernel)
            index.hicl.clear_cache()
            ctx = engine.execute(q, 5, order_sensitive=order_sensitive)
            runs[kernel] = ([(r.trajectory_id, r.distance) for r in ctx.ranked], asdict(ctx.stats))
        (block, block_stats), (scalar, scalar_stats) = runs["block"], runs["scalar"]
        assert block and [t for t, _ in block] == [t for t, _ in scalar]
        assert all(math.isclose(a, b, rel_tol=1e-9) for (_, a), (_, b) in zip(block, scalar))
        assert block_stats == scalar_stats

    def test_loose_lower_bound_same_results(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        tight = GATSearchEngine(index, use_tight_lower_bound=True)
        loose = GATSearchEngine(index, use_tight_lower_bound=False)
        q = _query_from(small_db, 12)
        a = [round(r.distance, 9) for r in tight.atsq(q, 5)]
        b = [round(r.distance, 9) for r in loose.atsq(q, 5)]
        assert a == b

    def test_loose_lower_bound_retrieves_at_least_as_much(self, small_db):
        index = GATIndex.build(small_db, GATConfig(depth=5, memory_levels=4))
        tight = GATSearchEngine(index, use_tight_lower_bound=True)
        loose = GATSearchEngine(index, use_tight_lower_bound=False)
        q = _query_from(small_db, 13)
        t_count = tight.execute(q, 5).stats.candidates_retrieved
        l_count = loose.execute(q, 5).stats.candidates_retrieved
        assert l_count >= t_count
