"""Sharded serving: partitioned GAT indexes with parallel fan-out/merge.

The scale-out layer above the single-machine engine:

* :class:`~repro.shard.router.ShardRouter` — trajectory-id partitioning
  (hash or contiguous ranges); whole trajectories per shard, so per-shard
  top-k is exact.
* :class:`~repro.shard.index.ShardedGATIndex` — one complete GAT index
  (own database subset, own simulated disk) per shard, with routed
  inserts and a composite version for cache invalidation.
* :class:`~repro.shard.service.ShardedQueryService` — the one sharded
  service: fans each query out across shards through a pluggable executor
  (serial / thread / process) and k-way merges the ranked lists; results
  are byte-identical to the unsharded engine.
* :mod:`~repro.shard.replicas` — ``n_replicas`` copies of every shard
  behind one :class:`~repro.shard.replicas.ReplicaRouter` (round-robin
  over the copies the per-replica circuit breakers call healthy, bound at
  submission on every backend), for read scaling beyond one device per
  shard (``ShardedQueryService(..., n_replicas=2)``); rankings stay
  byte-identical.
* :mod:`~repro.shard.resilience` — the one fan-out: a supervisor that
  submits every shard task and answers time and failure with per-query
  deadlines, bounded backoff'd retries, hedged attempts, pool
  self-healing, and graceful degradation to partial coverage (tuned with
  a :class:`~repro.shard.resilience.FaultPolicy`; all-or-nothing without
  one).
"""

from repro.shard.executor import (
    EXECUTOR_KINDS,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardEngineSpec,
    ShardResult,
    ShardTask,
    ShardTaskError,
    ThreadShardExecutor,
    build_shard_engine,
)
from repro.shard.index import ShardedGATIndex
from repro.shard.replicas import BreakerConfig, ReplicaHealth, ReplicaRouter
from repro.shard.resilience import (
    DeadlineExceeded,
    FanoutOutcome,
    FanoutSupervisor,
    FaultPolicy,
)
from repro.shard.router import ShardRouter
from repro.shard.service import ShardedQueryService

__all__ = [
    "ShardRouter",
    "ShardedGATIndex",
    "ShardedQueryService",
    "ReplicaRouter",
    "BreakerConfig",
    "ReplicaHealth",
    "FaultPolicy",
    "FanoutSupervisor",
    "FanoutOutcome",
    "DeadlineExceeded",
    "ShardTask",
    "ShardResult",
    "ShardTaskError",
    "ShardEngineSpec",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "EXECUTOR_KINDS",
    "build_shard_engine",
]
