"""The strongest integration property: all four searchers return identical
top-k distance sequences on randomly generated databases and queries —
``==``, not rounded: every searcher scores through the same block kernel
(the GAT engine a validation round at a time, IL / RT / IRT a
one-candidate round per trajectory).

A disagreement implicates index construction, candidate retrieval, pruning
or termination in at least one method — this has caught real bugs during
development.
"""

import random

import pytest

from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch
from repro.core.engine import GATSearchEngine
from repro.core.query import Query, QueryPoint
from repro.index.gat.index import GATConfig, GATIndex


@pytest.fixture(scope="module")
def stack(tiny_db):
    return {
        "GAT": GATSearchEngine(
            GATIndex.build(tiny_db, GATConfig(depth=5, memory_levels=4))
        ),
        "IL": InvertedListSearch(tiny_db),
        "RT": RTreeSearch(tiny_db),
        "IRT": IRTreeSearch(tiny_db),
    }


def _random_query(db, rng, nq, na, min_acts=1):
    """*nq* query points near points (of at least *min_acts* activities)
    of one random trajectory, each asking up to *na* of its activities."""
    while True:
        tr = db.trajectories[rng.randrange(len(db))]
        pts = [p for p in tr if len(p.activities) >= min_acts]
        if len(pts) >= nq:
            qps = []
            for p in rng.sample(pts, nq):
                acts = rng.sample(sorted(p.activities), min(na, len(p.activities)))
                qps.append(
                    QueryPoint(
                        p.x + rng.uniform(-0.2, 0.2),
                        p.y + rng.uniform(-0.2, 0.2),
                        frozenset(acts),
                    )
                )
            return Query(qps)


@pytest.mark.parametrize("seed", range(8))
def test_atsq_agreement(stack, tiny_db, seed):
    rng = random.Random(seed)
    q = _random_query(tiny_db, rng, nq=rng.randint(1, 3), na=rng.randint(1, 2))
    k = rng.randint(1, 6)
    distances = {
        name: tuple(r.distance for r in s.atsq(q, k))
        for name, s in stack.items()
    }
    reference = distances["IL"]
    for name, got in distances.items():
        assert got == reference, f"{name} disagrees with IL: {got} vs {reference}"


@pytest.mark.parametrize("seed", range(8))
def test_oatsq_agreement(stack, tiny_db, seed):
    rng = random.Random(seed + 100)
    q = _random_query(tiny_db, rng, nq=rng.randint(1, 3), na=rng.randint(1, 2))
    k = rng.randint(1, 5)
    distances = {
        name: tuple(r.distance for r in s.oatsq(q, k))
        for name, s in stack.items()
    }
    reference = distances["IL"]
    for name, got in distances.items():
        assert got == reference, f"{name} disagrees with IL: {got} vs {reference}"


@pytest.mark.parametrize("order_sensitive", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_multi_activity_agreement(stack, tiny_db, seed, order_sensitive):
    """Query points of three or four activities: a row's cover spans
    several points, whose distance sums a set-partition cover and a
    sorted scan can round differently in the last bit."""
    rng = random.Random(seed + 200)
    na = rng.randint(3, 4)
    q = _random_query(tiny_db, rng, nq=rng.randint(1, 3), na=na, min_acts=na)
    k = rng.randint(1, 6)
    distances = {
        name: tuple(r.distance for r in (s.oatsq if order_sensitive else s.atsq)(q, k))
        for name, s in stack.items()
    }
    reference = distances["IL"]
    for name, got in distances.items():
        assert got == reference, f"{name} disagrees with IL: {got} vs {reference}"


def test_agreement_across_k_values(stack, tiny_db):
    rng = random.Random(999)
    q = _random_query(tiny_db, rng, nq=2, na=1)
    for k in (1, 3, 7, 15):
        distances = {
            name: tuple(r.distance for r in s.atsq(q, k))
            for name, s in stack.items()
        }
        reference = distances["IL"]
        for name, got in distances.items():
            assert got == reference


def test_agreement_on_fresh_databases():
    """Different generator seeds, full stack rebuilt each time."""
    from repro.data.generator import CheckInGenerator, GeneratorConfig

    for seed in (5, 6):
        db = CheckInGenerator(
            GeneratorConfig(
                n_users=40,
                n_venues=100,
                vocabulary_size=60,
                width_km=8.0,
                height_km=8.0,
                checkins_per_user_mean=6.0,
                seed=seed,
            )
        ).generate()
        stack = {
            "GAT": GATSearchEngine(
                GATIndex.build(db, GATConfig(depth=4, memory_levels=3))
            ),
            "IL": InvertedListSearch(db),
            "RT": RTreeSearch(db),
            "IRT": IRTreeSearch(db),
        }
        rng = random.Random(seed)
        q = _random_query(db, rng, nq=2, na=2)
        reference = tuple(r.distance for r in stack["IL"].atsq(q, 4))
        for name, s in stack.items():
            got = tuple(r.distance for r in s.atsq(q, 4))
            assert got == reference, name
