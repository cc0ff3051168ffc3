"""Common machinery of the baseline searchers.

Every searcher validates and scores candidates through the exact same
:class:`~repro.core.evaluator.MatchEvaluator` the GAT engine uses — the
paper is explicit that the four methods "only differ in the index structure
and how they retrieve candidates" (Section VII-A).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

from repro.core.evaluator import MatchEvaluator
from repro.core.match import INFINITY
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.model.database import TrajectoryDatabase
from repro.model.distance import DistanceMetric


@dataclass(slots=True)
class BaselineStats:
    """Work counters shared by the baseline searchers."""

    candidates_retrieved: int = 0
    candidates_scored: int = 0
    nodes_accessed: int = 0
    points_popped: int = 0
    pruned_invalid: int = 0

    def reset(self) -> None:
        self.candidates_retrieved = 0
        self.candidates_scored = 0
        self.nodes_accessed = 0
        self.points_popped = 0
        self.pruned_invalid = 0


class Searcher(ABC):
    """Abstract ATSQ/OATSQ searcher over one database."""

    def __init__(self, db: TrajectoryDatabase, metric: Optional[DistanceMetric] = None):
        self.db = db
        self.evaluator = MatchEvaluator(metric)
        self.stats = BaselineStats()

    # ------------------------------------------------------------------
    # Public API (same shape as GATSearchEngine)
    # ------------------------------------------------------------------
    def atsq(self, query: Query, k: int, explain: bool = False) -> List[SearchResult]:
        self.stats.reset()
        results = self._search(query, k, order_sensitive=False)
        return self._maybe_explain(query, results, False, explain)

    def oatsq(self, query: Query, k: int, explain: bool = False) -> List[SearchResult]:
        self.stats.reset()
        results = self._search(query, k, order_sensitive=True)
        return self._maybe_explain(query, results, True, explain)

    @abstractmethod
    def _search(self, query: Query, k: int, order_sensitive: bool) -> List[SearchResult]:
        """Index-specific candidate retrieval + scoring."""

    # ------------------------------------------------------------------
    # Shared scoring path
    # ------------------------------------------------------------------
    def score_candidate(
        self,
        query: Query,
        trajectory_id: int,
        order_sensitive: bool,
        threshold: float = INFINITY,
    ) -> float:
        """Validate activity containment and compute Dmm / Dmom.

        Returns ``inf`` for non-matches, exactly mirroring the GAT engine's
        tail so cross-method results are comparable.
        """
        trajectory = self.db.get(trajectory_id)
        if not query.all_activities <= trajectory.activity_union:
            self.stats.pruned_invalid += 1
            return INFINITY
        self.stats.candidates_scored += 1
        if order_sensitive:
            return self.evaluator.dmom(query, trajectory, threshold)
        return self.evaluator.dmm(query, trajectory)

    def _maybe_explain(
        self,
        query: Query,
        results: List[SearchResult],
        order_sensitive: bool,
        explain: bool,
    ) -> List[SearchResult]:
        if not explain:
            return results
        out = []
        for r in results:
            trajectory = self.db.get(r.trajectory_id)
            if order_sensitive:
                _d, matches = self.evaluator.dmom_explained(query, trajectory)
            else:
                _d, matches = self.evaluator.dmm_explained(query, trajectory)
            out.append(SearchResult(r.trajectory_id, r.distance, matches))
        return out
