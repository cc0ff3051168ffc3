"""The lazy termination test equals the exact one.

``beats_unseen(τ, retriever, m)`` must answer ``τ < lower_bound_distance(
retriever.frontiers(), retriever.bitmaps, m)`` on every real retriever
state — before the first round and after each — for every ``τ`` that can
sit on a decision edge: ``inf``, ``Σ d_1``, ``Σ d_m``, ``D_lb`` and its two
float neighbours, ``0.0`` and a random value.  The states come from
``test_retrieval_differential``'s generated databases, grids, queries and
round bounds (grids up to depth 8).  It must also run Algorithm 2 exactly
when ``Σ d_1 ≤ τ < Σ d_m``, and the two sums — which the C walk computes
(``CandidateRetriever.queue_sums``) — must equal the ones summed here from
the frontiers and bracket ``D_lb``.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st
from test_retrieval_differential import _SPREAD, GHOST, MAX_ROUNDS, Case, _build_index, _cases

from repro.core import pipeline
from repro.core.context import SearchStats
from repro.core.lower_bound import beats_unseen, lower_bound_distance
from repro.core.match import INFINITY
from repro.core.query import Query, QueryPoint


def _sums(frontiers, m):
    """``(Σ d_1, Σ d_m)`` in query-point order; ``None`` when a frontier is
    empty (``D_lb = +inf``, no sums)."""
    low = high = 0.0
    for frontier in frontiers:
        if not frontier:
            return None
        low += frontier.nearest(1)[0][0]
        high += frontier.mth_distance(m)
    return low, high


def _check_state(retriever, m, rng):
    lower = lower_bound_distance(retriever.frontiers(), retriever.bitmaps, m)
    sums = _sums(retriever.frontiers(), m)
    assert retriever.queue_sums(m) == sums  # the C pass over the queue, exactly
    taus = [
        INFINITY,
        lower,
        math.nextafter(lower, INFINITY),
        math.nextafter(lower, -INFINITY),
        0.0,
        rng.uniform(0.0, 150.0),
    ]
    if sums is not None:
        low, high = sums
        assert low <= lower <= high
        taus += [low, high, rng.uniform(low, low if high == INFINITY else high)]
    for tau in taus:
        calls = []

        def exact(*args):
            calls.append(args)
            return lower_bound_distance(*args)

        assert beats_unseen(tau, retriever, m, exact) == (tau < lower), (tau, lower, sums)
        undecided = sums is not None and sums[0] <= tau < sums[1]
        assert len(calls) == int(undecided), (tau, sums)


def _check(case: Case, rng) -> None:
    index = _build_index(case, case.trajectories)
    for raw in case.queries:
        query = Query([QueryPoint(x, y, frozenset(acts)) for x, y, acts in raw])
        retriever = pipeline.CandidateRetriever(index, query, SearchStats())
        _check_state(retriever, case.m, rng)
        for r in range(MAX_ROUNDS):
            stop = case.stops[r % len(case.stops)]
            retriever.retrieve(case.batch, INFINITY if stop is None else stop)
            _check_state(retriever, case.m, rng)
            if retriever.exhausted:
                break


_ONE_ACTIVITY = [(50.0, 50.0, (0,))]


@given(_cases(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
# One query point whose frontier is empty from the start (no list holds its
# activity): D_lb = +inf whatever the other point's frontier holds.
@example(Case(_SPREAD, depth=3, memory_levels=2, queries=[[(50.0, 50.0, (0,)), (10.0, 10.0, (GHOST,))]]), random.Random(0))
# Frontiers shorter than m (four level-1 cells at most), and exactly m long.
@example(Case(_SPREAD, depth=1, memory_levels=1, queries=[[(50.0, 50.0, (0, 1, 2))]], m=8), random.Random(0))
@example(Case(_SPREAD, depth=1, memory_levels=1, queries=[[(50.0, 50.0, (0, 1, 2))]], m=4), random.Random(0))
# m = 1: Σ d_1 == D_lb == Σ d_m, nothing is ever undecided.
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[[(10.0, 10.0, (0, 1)), (90.0, 70.0, (2,))]], m=1), random.Random(0))
# An uncoverable virtual trajectory: no cell ever covers GHOST, the frontier
# is shorter than m, so D_lb = +inf while Σ d_1 is finite.
@example(Case(_SPREAD, depth=2, memory_levels=1, queries=[[(50.0, 50.0, (0, GHOST))]], m=8), random.Random(0))
# A single activity: every frontier cell covers it, so D_lb == Σ d_1 exactly
# while Σ d_m lies above — τ == Σ d_1 reaches the min-cover.
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[_ONE_ACTIVITY], batch=1, m=3), random.Random(0))
def test_lazy_test_equals_exact_test(case, rng):
    _check(case, rng)
