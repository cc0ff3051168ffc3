"""The serving stack's settable values, pinned.

Every knob needs a second real value — one some entry point (the CLI, a
bench, an example, the e2e benchmark) actually sets.  A value nothing varies
is a constant.  These tests list the exact parameter names and dataclass
fields of the nine serving surfaces, so adding (or removing) a knob always
shows up as a diff here, next to the reason it earns its place.

Counting rule: every parameter but ``self`` and the object the surface
wraps (``db``, ``index``, ``spec``, ``service``, ``engine``); every field
of a config dataclass.
"""

import dataclasses
import inspect

import pytest

from repro.serving.admission import EWMA_ALPHA, ServingConfig
from repro.serving.frontend import ServingFrontend
from repro.shard import resilience
from repro.shard.executor import ProcessShardExecutor
from repro.shard.index import ShardedGATIndex
from repro.shard.replicas import ReplicaPlacement
from repro.shard.resilience import FaultPolicy
from repro.shard.router import STRATEGIES, ShardRouter
from repro.shard.service import QueryService, ShardedQueryService

_SUBJECTS = {"self", "db", "index", "spec", "service", "engine"}

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
            "obs",
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


def test_total_knob_count():
    assert len(SURFACES) == 9
    assert sum(len(_knobs(surface)) for surface, _ in SURFACES.values()) == 39


def test_retired_knobs_are_constants_at_their_old_defaults():
    assert resilience._RETRY_BACKOFF_S == 0.01
    assert resilience._HEDGE_QUANTILE == 0.95
    assert resilience._HEDGE_MIN_SAMPLES == 20
    assert EWMA_ALPHA == 0.2
    assert ProcessShardExecutor.MAX_POOL_REPAIRS == 3


def test_build_strategies():
    """``hash`` (the benches' default) and ``spatial`` (the e2e fleet, the
    CLI) both build fleets; ``ShardRouter`` itself only knows whether it
    has a directory."""
    assert STRATEGIES == ("hash", "spatial")
