"""The stack's settable values, pinned.

Every knob needs a second real value — one some entry point (the CLI, a
bench, an example, the e2e benchmark) actually sets.  A value nothing varies
is a constant.  These tests list the exact parameter names and dataclass
fields of the nine serving surfaces and of the layers beneath them (engine,
index, storage, workload generation, ``repro.obs``), so adding (or
removing) a knob always shows up as a diff here, next to the reason it
earns its place.

Counting rule: every parameter but ``self``, the object the surface wraps
(``db``, ``index``, ``spec``, ``service``, ``engine``) and the data it is
built from (a grid and its in-memory level count, a disk, posting arrays,
R-tree items and their activity sets, a metric name); every field of a
config dataclass.
"""

import dataclasses
import inspect

import pytest

from repro.bench.workloads import HEAD_SIZE, WorkloadConfig
from repro.core.engine import EngineConfig
from repro.core.lower_bound import LB_CELLS
from repro.index.gat.hicl import CACHE_CAPACITY, HICL
from repro.index.gat.index import GATConfig
from repro.index.rtree import MAX_ENTRIES, RTree
from repro.obs import MetricRegistry, Observability
from repro.obs.metrics import BOUNDS
from repro.serving.admission import EWMA_ALPHA, ServingConfig
from repro.serving.frontend import ServingFrontend
from repro.shard import resilience
from repro.shard.executor import ProcessShardExecutor
from repro.shard.index import ShardedGATIndex
from repro.shard.replicas import ReplicaPlacement
from repro.shard.resilience import FaultPolicy
from repro.shard.router import STRATEGIES, ShardRouter
from repro.shard.service import QueryService, ShardedQueryService
from repro.storage.disk import PAGE_SIZE, SimulatedDisk

_SUBJECTS = {
    "self",
    "db",
    "index",
    "spec",
    "service",
    "engine",
    "grid",
    "memory_levels",
    "disk",
    "leaf_codes",
    "activities",
    "items",
    "name",
}

SURFACES = {
    "ShardRouter": (ShardRouter, ("n_shards", "assignments")),
    "ShardedGATIndex.build": (
        ShardedGATIndex.build,
        ("n_shards", "config", "strategy", "disk_factory", "shard_box"),
    ),
    "FaultPolicy": (
        FaultPolicy,
        ("deadline_s", "max_retries", "hedge_after_s", "allow_partial"),
    ),
    "ShardedQueryService": (
        ShardedQueryService,
        (
            "engine_config",
            "executor",
            "max_workers",
            "result_cache_size",
            "fault_policy",
            "obs",
            "n_replicas",
            "replica_disk_factory",
            "breaker",
        ),
    ),
    "ProcessShardExecutor": (ProcessShardExecutor, ("max_workers",)),
    "ReplicaPlacement": (
        ReplicaPlacement,
        (
            "n_replicas",
            "replica_disk_factory",
            "breaker",
            "engine_config",
            "in_process",
            "primary",
        ),
    ),
    "ServingConfig": (
        ServingConfig,
        (
            "queue_capacity",
            "max_concurrency",
            "default_deadline_s",
            "shed",
            "propagate_deadline",
            "shed_headroom",
        ),
    ),
    "ServingFrontend": (ServingFrontend, ("config", "obs")),
    "QueryService": (QueryService, ("max_workers", "result_cache_size", "obs")),
}

#: The layers the serving surfaces sit on.
LAYER_SURFACES = {
    "EngineConfig": (
        EngineConfig,
        ("retrieval_batch", "use_tas", "use_tight_lower_bound", "apl_cache_size", "kernel"),
    ),
    "GATConfig": (GATConfig, ("depth", "memory_levels", "sketch_intervals")),
    "SimulatedDisk": (
        SimulatedDisk,
        ("read_latency_s", "concurrent_reads", "fault_injector"),
    ),
    "WorkloadConfig": (WorkloadConfig, ("n_query_points", "n_activities_per_point", "seed")),
    "Observability": (Observability, ("tracer",)),
    "HICL": (HICL, ()),
    "HICL.build": (HICL.build, ()),
    "RTree": (RTree, ()),
    "RTree.bulk_load": (RTree.bulk_load, ()),
    "MetricRegistry.counter": (MetricRegistry.counter, ()),
    "MetricRegistry.gauge": (MetricRegistry.gauge, ()),
    "MetricRegistry.histogram": (MetricRegistry.histogram, ()),
}


def _knobs(surface) -> tuple:
    if dataclasses.is_dataclass(surface):
        return tuple(field.name for field in dataclasses.fields(surface))
    return tuple(
        name for name in inspect.signature(surface).parameters if name not in _SUBJECTS
    )


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_knobs_are_pinned(name):
    surface, expected = SURFACES[name]
    assert _knobs(surface) == expected


@pytest.mark.parametrize("name", sorted(LAYER_SURFACES))
def test_layer_knobs_are_pinned(name):
    surface, expected = LAYER_SURFACES[name]
    assert _knobs(surface) == expected


def test_total_knob_count():
    assert len(SURFACES) == 9
    assert sum(len(_knobs(surface)) for surface, _ in SURFACES.values()) == 38


def test_retired_knobs_are_constants_at_their_old_defaults():
    assert resilience._RETRY_BACKOFF_S == 0.01
    assert resilience._HEDGE_QUANTILE == 0.95
    assert resilience._HEDGE_MIN_SAMPLES == 20
    assert EWMA_ALPHA == 0.2
    assert ProcessShardExecutor.MAX_POOL_REPAIRS == 3


def test_layer_constants_keep_their_old_defaults():
    """Knobs of the layers beneath the serving surfaces that no entry
    point set, at the defaults they had as parameters."""
    assert LB_CELLS == 8  # Algorithm 2's m
    assert CACHE_CAPACITY == 4096  # HICL disk-resident list cache
    assert PAGE_SIZE == 4096
    assert MAX_ENTRIES == 32  # RT / IRT R-tree fan-out
    assert HEAD_SIZE == 50  # query activities drawn from the head
    assert BOUNDS == tuple(10.0 ** (e / 4.0) for e in range(-20, 9))


def test_build_strategies():
    """``hash`` (the benches' default) and ``spatial`` (the e2e fleet, the
    CLI) both build fleets; ``ShardRouter`` itself only knows whether it
    has a directory."""
    assert STRATEGIES == ("hash", "spatial")
