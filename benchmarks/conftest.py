"""Shared benchmark fixtures.

Every paper figure gets one module under ``benchmarks/``; each prints the
figure's full series (the textual equivalent of the paper's plot) once per
session and registers pytest-benchmark timings for the default setting.

Scaling: datasets are generated at ``REPRO_BENCH_SCALE`` (default 0.04,
i.e. ~1.3K LA-like / ~2K NY-like trajectories — paper-shaped but laptop
sized) with ``REPRO_BENCH_QUERIES`` queries per sweep point (default 3; the
paper uses 50).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.experiments import ExperimentScale, build_dataset
from repro.bench.harness import ExperimentHarness
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.index.gat.index import GATConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "3"))

#: Grid depth used by benchmark GAT indexes.  The paper uses d=8 over a
#: full metro area (~400 m cells); our scaled city is ~sqrt(scale) as wide,
#: so d=6 gives comparable cell sizes.
BENCH_GAT_DEPTH = int(os.environ.get("REPRO_BENCH_GAT_DEPTH", "6"))


def bench_scale() -> ExperimentScale:
    return ExperimentScale(dataset_scale=BENCH_SCALE, n_queries=BENCH_QUERIES)


def usable_cores() -> int:
    """Cores this process may run on — recorded in the BENCH_*.json files
    whose ratios depend on it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_gat_config() -> GATConfig:
    return GATConfig(depth=BENCH_GAT_DEPTH, memory_levels=min(6, BENCH_GAT_DEPTH))


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return bench_scale()


@pytest.fixture(scope="session")
def la_db(scale):
    return build_dataset("la", scale)


@pytest.fixture(scope="session")
def ny_db(scale):
    return build_dataset("ny", scale)


@pytest.fixture(scope="session")
def la_harness(la_db):
    return ExperimentHarness(la_db, gat_config=bench_gat_config())


@pytest.fixture(scope="session")
def ny_harness(ny_db):
    return ExperimentHarness(ny_db, gat_config=bench_gat_config())


@pytest.fixture(scope="session")
def la_queries(la_db, scale):
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=scale.seed))
    return gen.queries(scale.n_queries)


@pytest.fixture(scope="session")
def ny_queries(ny_db, scale):
    gen = QueryWorkloadGenerator(ny_db, WorkloadConfig(seed=scale.seed))
    return gen.queries(scale.n_queries)
