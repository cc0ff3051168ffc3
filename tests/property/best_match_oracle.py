"""``Dbm(Q, Tr)`` — the activity-blind best match distance of the RT
baseline (Section III-B): the sum over query points of the distance to the
nearest trajectory point.  It lower-bounds ``Dmm`` (Lemma 2), which the
tests check through it; no searcher scores with it, so it lives here and
not on ``repro.core.evaluator.MatchEvaluator``.
"""

from repro.model.distance import DistanceMetric, EuclideanDistance


def best_match_distance(query, trajectory, metric: DistanceMetric = EuclideanDistance()) -> float:
    """``Σ_i min_p metric(q_i, p)`` over the points ``p`` of *trajectory*."""
    total = 0.0
    for q in query:
        total += min(metric(q.coord, p.coord) for p in trajectory)
    return total
