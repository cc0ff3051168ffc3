"""Serving-suite fixtures: a small deterministic query workload over
``tiny_db``."""

import pytest

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def workload_queries(tiny_db):
    """Eight deterministic queries over the shared tiny database."""
    generator = QueryWorkloadGenerator(tiny_db, WorkloadConfig(seed=5))
    return generator.queries(8)
