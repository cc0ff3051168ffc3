"""Core contribution of the paper: ATSQ/OATSQ queries and their algorithms.

Contents map directly onto the paper's sections:

* :mod:`repro.core.query` — query model (Section II).
* :mod:`repro.core.match` — minimum point match distance, Algorithm 3
  (Section V-D), plus brute-force oracles used by the test suite.
* :mod:`repro.core.order_match` — minimum order-sensitive match distance,
  Algorithm 4 and the MIB validation (Section VI).
* :mod:`repro.core.lower_bound` — the tight lower bound for unseen
  trajectories, Algorithm 2 (Section V-B).
* :mod:`repro.core.evaluator` — the shared candidate-scoring path used by
  GAT *and* all three baselines (Section VII-A notes all methods share the
  distance computations).
* :mod:`repro.core.context` — per-query execution state
  (:class:`SearchStats` counters + :class:`ExecutionContext`).
* :mod:`repro.core.pipeline` — the staged pipeline: candidate retrieval,
  the composable validation filter chain (TAS → APL → MIB), scoring.
* :mod:`repro.core.engine` — the best-first search framework, Algorithm 1
  (Section V), assembling the pipeline stages over the GAT index.
"""

from repro.core.query import Query, QueryPoint
from repro.core.match import (
    PointMatchTable,
    minimum_point_match,
    minimum_point_match_distance,
)
from repro.core.order_match import (
    matching_index_bounds,
    minimum_order_match_distance,
    order_feasible,
)
from repro.core.evaluator import MatchEvaluator
from repro.core.kernels import resolve_kernel
from repro.core.results import SearchResult, TopKCollector
from repro.core.context import ExecutionContext, SearchStats
from repro.core.pipeline import (
    APLFilter,
    CandidateRetriever,
    MIBFilter,
    ScoringStage,
    TASFilter,
    ValidationStage,
)
from repro.core.engine import EngineConfig, GATSearchEngine

__all__ = [
    "Query",
    "QueryPoint",
    "PointMatchTable",
    "minimum_point_match",
    "minimum_point_match_distance",
    "minimum_order_match_distance",
    "matching_index_bounds",
    "order_feasible",
    "MatchEvaluator",
    "resolve_kernel",
    "SearchResult",
    "TopKCollector",
    "EngineConfig",
    "GATSearchEngine",
    "SearchStats",
    "ExecutionContext",
    "CandidateRetriever",
    "TASFilter",
    "APLFilter",
    "MIBFilter",
    "ValidationStage",
    "ScoringStage",
]
