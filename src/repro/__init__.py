"""repro — a reproduction of "Towards Efficient Search for Activity
Trajectories" (Zheng, Shang, Yuan, Yang; ICDE 2013).

The library implements activity-trajectory similarity search end to end:

* the data model (activity trajectories over a frequency-ordered activity
  vocabulary) and a synthetic Foursquare-like check-in generator with
  LA/NY presets mirroring the paper's Table IV;
* the **GAT** hybrid grid index — HICL, ITL, TAS and APL — with a
  simulated two-tier memory/disk layout;
* exact algorithms for the minimum match distance (Algorithm 3) and the
  minimum order-sensitive match distance (Algorithm 4);
* the best-first search engine — a **stateless staged pipeline**
  (candidate retrieval → TAS/APL/MIB validation filters → scoring) with
  the tight unseen-trajectory lower bound (Algorithms 1-2), answering
  **ATSQ** and **OATSQ** top-k queries;
* a concurrent **QueryService** that batches queries over one shared
  engine with thread-pooled fan-out, shared LRU caches, and aggregate
  serving statistics (QPS, latency percentiles, cache hit rates);
* a **sharded subsystem** (:mod:`repro.shard`) — trajectory-partitioned
  per-shard GAT indexes behind a :class:`ShardedQueryService` that fans
  queries out over threads or a process pool and k-way merges the ranked
  lists, byte-identical to the single index — with optional replication,
  and fault-tolerant serving (:class:`FaultPolicy` deadlines / retries /
  hedges, circuit-breaking replica failover, a self-healing process
  fleet) exercised by the seedable fault injection in
  :mod:`repro.faults`;
* the paper's three baselines (IL, RT, IRT) over from-scratch inverted
  lists, an R-tree and an IR-tree;
* a unified observability layer (:mod:`repro.obs`) — per-query span
  trees, a sharded metric registry fed by the serving stack, and
  JSONL/Prometheus exporters — attached to any service via
  ``obs=Observability.enabled()``;
* an overload-resilient **open-loop serving front-end**
  (:mod:`repro.serving`) — an asyncio admission layer over any query
  service with a bounded queue, SLO-aware load shedding, deadline
  propagation into the fault policy, seeded Poisson/diurnal/burst
  arrival processes, and a goodput-centric open-loop load driver.

Quickstart — single query
-------------------------
>>> from repro import dataset_from_preset, GATIndex, GATSearchEngine, Query
>>> db = dataset_from_preset("la", scale=0.01)
>>> engine = GATSearchEngine(GATIndex.build(db))
>>> some_tr = db.trajectories[0]
>>> q = Query.from_named(db.vocabulary, [
...     (some_tr[0].x, some_tr[0].y,
...      [db.vocabulary.name_of(next(iter(some_tr.activity_union)))]),
... ])
>>> results = engine.atsq(q, k=3)

Quickstart — batched serving
----------------------------
One engine serves many queries concurrently; responses come back in
request order, bitwise-identical to a sequential loop:

>>> from repro import QueryService
>>> service = QueryService(engine, max_workers=8)
>>> responses = service.search_many([q, q, q], k=3)
>>> [r.results[0].trajectory_id for r in responses]  # doctest: +SKIP
>>> service.stats().qps  # doctest: +SKIP
"""

from repro.model import (
    ActivityTrajectory,
    TrajectoryDatabase,
    TrajectoryPoint,
    Vocabulary,
    EuclideanDistance,
    MatrixDistance,
)
from repro.core import (
    EngineConfig,
    ExecutionContext,
    GATSearchEngine,
    MatchEvaluator,
    Query,
    QueryPoint,
    SearchResult,
    SearchStats,
    minimum_point_match_distance,
    minimum_order_match_distance,
)
from repro.service import QueryRequest, QueryResponse, QueryService, ServiceStats
from repro.shard import (
    BreakerConfig,
    FaultPolicy,
    ShardedGATIndex,
    ShardedQueryService,
    ShardRouter,
)
from repro.obs import Observability
from repro.serving import (
    ExpiredError,
    RejectedError,
    ServingConfig,
    ServingFrontend,
    ShedError,
)
from repro.index import GATIndex, InvertedIndex, RTree
from repro.index.gat.index import GATConfig
from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch
from repro.data import CheckInGenerator, GeneratorConfig, dataset_from_preset
from repro.data import load_database, save_database

__version__ = "1.0.0"

__all__ = [
    "ActivityTrajectory",
    "TrajectoryDatabase",
    "TrajectoryPoint",
    "Vocabulary",
    "EuclideanDistance",
    "MatrixDistance",
    "Query",
    "QueryPoint",
    "SearchResult",
    "MatchEvaluator",
    "minimum_point_match_distance",
    "minimum_order_match_distance",
    "GATIndex",
    "GATConfig",
    "GATSearchEngine",
    "EngineConfig",
    "SearchStats",
    "ExecutionContext",
    "QueryService",
    "QueryRequest",
    "QueryResponse",
    "ServiceStats",
    "ShardRouter",
    "ShardedGATIndex",
    "ShardedQueryService",
    "FaultPolicy",
    "BreakerConfig",
    "Observability",
    "ServingFrontend",
    "ServingConfig",
    "RejectedError",
    "ShedError",
    "ExpiredError",
    "InvertedIndex",
    "RTree",
    "InvertedListSearch",
    "RTreeSearch",
    "IRTreeSearch",
    "dataset_from_preset",
    "CheckInGenerator",
    "GeneratorConfig",
    "load_database",
    "save_database",
    "__version__",
]
