"""Query workload generation following the paper's methodology.

Section VII-A: "Each query is generated by randomly choosing a trajectory
from the dataset, and then selecting the desired number of locations and
activities."  Anchoring queries in real trajectories guarantees at least
one matching trajectory exists and makes the query activity distribution
track the data's Zipf skew, exactly like crawled check-ins.

The diameter experiments (Figure 6) need queries whose locations spread a
chosen distance apart; :meth:`QueryWorkloadGenerator.query_with_diameter`
rejects samples until the diameter lands within tolerance, then rescales
around the centroid to hit it exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.query import Query, QueryPoint
from repro.model.database import TrajectoryDatabase


#: Query activities come from the ``HEAD_SIZE`` most frequent activity IDs.
#: The paper's queries ask for common activity *types* (Definition 1 lists
#: "sport, dining and entertaining"; the motivating example queries
#: categories, not long-tail tip words), and its flat, large IL timings
#: imply query activities that occur in a sizeable share of trajectories.
HEAD_SIZE = 50


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Default query shape — the paper's Table V defaults."""

    n_query_points: int = 4
    n_activities_per_point: int = 3
    seed: int = 20130408  # ICDE'13 dates; any fixed seed works

    def __post_init__(self) -> None:
        if self.n_query_points < 1:
            raise ValueError("a query needs at least one point")
        if self.n_activities_per_point < 1:
            raise ValueError("each query point needs at least one activity")


class QueryWorkloadGenerator:
    """Draws queries anchored in a database's trajectories."""

    def __init__(self, db: TrajectoryDatabase, config: Optional[WorkloadConfig] = None):
        self.db = db
        self.config = config or WorkloadConfig()
        self._rng = random.Random(self.config.seed)
        # Only trajectories with enough queryable points can anchor a query.
        self._anchors: List[int] = [
            idx
            for idx, tr in enumerate(db.trajectories)
            if sum(1 for p in tr if self._queryable(p.activities)) >= self.config.n_query_points
        ]
        if not self._anchors:
            raise ValueError("no trajectory has enough activity-bearing points")

    def _queryable(self, activities) -> bool:
        """Does this activity set contribute at least one query activity?"""
        return any(a < HEAD_SIZE for a in activities)

    def _head_activities(self, activities) -> List[int]:
        """The point's query-eligible activities, most popular first."""
        return sorted(a for a in activities if a < HEAD_SIZE)

    # ------------------------------------------------------------------
    # Basic sampling
    # ------------------------------------------------------------------
    def _sample_anchor(self, n: int):
        """An anchor trajectory with *n* sampled queryable points, in
        trajectory order (OATSQ queries should follow the anchor's own
        visiting order so order-sensitive matches exist)."""
        while True:
            tr = self.db.trajectories[self._rng.choice(self._anchors)]
            indexed = [
                (pos, p) for pos, p in enumerate(tr) if self._queryable(p.activities)
            ]
            if len(indexed) >= n:
                picked = self._rng.sample(indexed, n)
                picked.sort(key=lambda ip: ip[0])
                return tr, [p for _pos, p in picked]

    def query(
        self,
        n_query_points: Optional[int] = None,
        n_activities_per_point: Optional[int] = None,
    ) -> Query:
        """One query with the given (or default) shape.

        Activity selection is most-popular-first (IDs are frequency
        ordered): users ask for common activity types, and this keeps
        candidate-set sizes in the regime the paper's IL timings imply.
        When a point carries fewer than ``|q.Φ|`` eligible activities, the
        remainder is padded from the anchor trajectory's other eligible
        activities — the activities performed *around* that location.
        """
        nq = n_query_points or self.config.n_query_points
        na = n_activities_per_point or self.config.n_activities_per_point
        while True:
            tr, points = self._sample_anchor(nq)
            pool = self._head_activities(tr.activity_union)
            query_points: List[QueryPoint] = []
            for p in points:
                chosen = self._head_activities(p.activities)[:na]
                for extra in pool:
                    if len(chosen) >= na:
                        break
                    if extra not in chosen:
                        chosen.append(extra)
                if len(chosen) < na:
                    break  # anchor too thin; resample
                query_points.append(QueryPoint(p.x, p.y, frozenset(chosen)))
            if len(query_points) == nq:
                return Query(query_points)

    def queries(self, n: int, **kwargs) -> List[Query]:
        """A batch of *n* queries (the paper uses 50 per sweep point)."""
        return [self.query(**kwargs) for _ in range(n)]

    # ------------------------------------------------------------------
    # Diameter-controlled sampling (Figure 6)
    # ------------------------------------------------------------------
    def query_with_diameter(
        self,
        diameter: float,
        n_query_points: Optional[int] = None,
        n_activities_per_point: Optional[int] = None,
        max_tries: int = 200,
    ) -> Query:
        """A query whose location spread ``δ(Q)`` equals *diameter*.

        Sampling: draw anchored queries; take the one whose raw diameter is
        closest to the target, then scale the locations about their
        centroid so the diameter is exact.  Activities stay anchored in
        real data; only geometry is adjusted (distance measures are
        translation/scale agnostic).
        """
        nq = n_query_points or self.config.n_query_points
        na = n_activities_per_point or self.config.n_activities_per_point
        if nq < 2:
            raise ValueError("a diameter needs at least two query points")
        best: Optional[Query] = None
        best_gap = float("inf")
        for _ in range(max_tries):
            q = self.query(nq, na)
            d = q.diameter()
            if d <= 0.0:
                continue
            gap = abs(d - diameter)
            if gap < best_gap:
                best_gap = gap
                best = q
            if gap <= 0.05 * diameter:
                break
        if best is None:
            raise RuntimeError("could not sample a query with positive diameter")
        return _rescale_to_diameter(best, diameter)

    def queries_with_diameter(self, n: int, diameter: float, **kwargs) -> List[Query]:
        return [self.query_with_diameter(diameter, **kwargs) for _ in range(n)]


def mixed_order_requests(queries: Sequence[Query], k: int):
    """Wrap a query batch as serving requests with alternating
    order-sensitivity (even index = ATSQ, odd = OATSQ).

    The serving benchmarks (`bench_sharded_scaling.py`,
    `bench_replica_scaling.py`) all exercise both distance modes in one
    batch this way, so the shape of the workload — and therefore what the
    committed throughput baselines mean — is defined once here.
    """
    from repro.service import QueryRequest

    return [
        QueryRequest(q, k=k, order_sensitive=(i % 2 == 1))
        for i, q in enumerate(queries)
    ]


def _rescale_to_diameter(query: Query, diameter: float) -> Query:
    """Scale the query locations about their centroid to the exact target
    diameter."""
    current = query.diameter()
    if current <= 0.0:
        raise ValueError("cannot rescale a zero-diameter query")
    factor = diameter / current
    cx = sum(q.x for q in query) / len(query)
    cy = sum(q.y for q in query) / len(query)
    return Query(
        [
            QueryPoint(cx + (q.x - cx) * factor, cy + (q.y - cy) * factor, q.activities)
            for q in query
        ]
    )
