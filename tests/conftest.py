"""Shared fixtures.

``fig1`` reconstructs the paper's running example (Figure 1): two
trajectories of five points each, three query points, and the exact
distance matrices printed in the figure (via a matrix-backed metric).
Activity letters a-f map to IDs 0-5.

``small_db`` / ``tiny_db`` are deterministic synthetic databases sized for
unit and integration tests respectively.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import pytest

# The oracle modules (``*_oracle.py`` / ``*_oracles.py``: retired or
# reference implementations the suites compare against) live beside the
# property tests and are imported by bare name from every test directory.
sys.path.insert(0, str(Path(__file__).parent / "property"))

from repro.core.query import Query, QueryPoint
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.model.database import TrajectoryDatabase
from repro.model.distance import MatrixDistance
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory
from repro.model.vocabulary import Vocabulary

# Activity letters of the paper's example.
A, B, C, D, E, F = range(6)


@dataclass(frozen=True)
class Fig1:
    """The complete Figure 1 setup."""

    tr1: ActivityTrajectory
    tr2: ActivityTrajectory
    query: Query
    metric: MatrixDistance
    vocabulary: Vocabulary

    @property
    def database(self) -> TrajectoryDatabase:
        return TrajectoryDatabase([self.tr1, self.tr2], self.vocabulary, name="fig1")


def _build_fig1() -> Fig1:
    # Per-point activity sets, exactly as printed in Figure 1.
    tr1_acts = [{D}, {A, C}, {B}, {C}, {D, E}]
    tr2_acts = [{A}, {B, C}, {C, D}, {E}, {F}]
    # Distance matrices: row i = query point q_{i+1}, column j = p_{tr, j+1}.
    d1 = [
        [2, 8, 16, 24, 32],
        [14, 6, 3, 11, 20],
        [33, 25, 17, 8, 1],
    ]
    d2 = [
        [6, 8, 17, 26, 31],
        [14, 13, 4, 13, 20],
        [32, 28, 16, 7, 3],
    ]
    q_coords = [(float(i), -1.0) for i in range(3)]
    table: Dict[Tuple[Tuple[float, float], Tuple[float, float]], float] = {}
    tr1_points, tr2_points = [], []
    for j in range(5):
        c1 = (float(j), 1.0)
        c2 = (float(j), 2.0)
        tr1_points.append(TrajectoryPoint(c1[0], c1[1], frozenset(tr1_acts[j])))
        tr2_points.append(TrajectoryPoint(c2[0], c2[1], frozenset(tr2_acts[j])))
        for i in range(3):
            table[(q_coords[i], c1)] = float(d1[i][j])
            table[(q_coords[i], c2)] = float(d2[i][j])
    query = Query(
        [
            QueryPoint(q_coords[0][0], q_coords[0][1], frozenset({A, B})),
            QueryPoint(q_coords[1][0], q_coords[1][1], frozenset({C, D})),
            QueryPoint(q_coords[2][0], q_coords[2][1], frozenset({E})),
        ]
    )
    vocabulary = Vocabulary(["a", "b", "c", "d", "e", "f"])
    return Fig1(
        tr1=ActivityTrajectory(1, tr1_points),
        tr2=ActivityTrajectory(2, tr2_points),
        query=query,
        metric=MatrixDistance(table),
        vocabulary=vocabulary,
    )


@pytest.fixture(scope="session")
def fig1() -> Fig1:
    return _build_fig1()


@pytest.fixture(scope="session")
def small_db() -> TrajectoryDatabase:
    """~200 trajectories, deterministic; fast enough for unit tests."""
    config = GeneratorConfig(
        n_users=200,
        n_venues=600,
        vocabulary_size=300,
        width_km=20.0,
        height_km=16.0,
        n_hotspots=6,
        checkins_per_user_mean=10.0,
        activities_per_checkin_mean=2.5,
        seed=1234,
    )
    return CheckInGenerator(config).generate(name="small")


@pytest.fixture(scope="session")
def tiny_db() -> TrajectoryDatabase:
    """~60 trajectories; for exhaustive cross-method comparisons."""
    config = GeneratorConfig(
        n_users=60,
        n_venues=150,
        vocabulary_size=80,
        width_km=10.0,
        height_km=8.0,
        n_hotspots=4,
        checkins_per_user_mean=8.0,
        activities_per_checkin_mean=2.0,
        seed=99,
    )
    return CheckInGenerator(config).generate(name="tiny")
