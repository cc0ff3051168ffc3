"""Unit tests for the distance metrics."""

import random

import numpy as np
import pytest

from distance_oracle import euclidean_matrix

from repro.model.distance import EuclideanDistance, MatrixDistance


class TestEuclidean:
    def test_pythagoras(self):
        assert EuclideanDistance()((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_symmetry_and_identity(self):
        d = EuclideanDistance()
        assert d((1, 2), (4, 6)) == d((4, 6), (1, 2))
        assert d((1, 2), (1, 2)) == 0.0


class TestMatrixDistance:
    def test_lookup_both_orders(self):
        m = MatrixDistance({((0.0, 0.0), (1.0, 1.0)): 7.0})
        assert m((0.0, 0.0), (1.0, 1.0)) == 7.0
        assert m((1.0, 1.0), (0.0, 0.0)) == 7.0

    def test_missing_pair_raises(self):
        m = MatrixDistance({})
        with pytest.raises(KeyError):
            m((0.0, 0.0), (1.0, 1.0))


class TestEuclideanMatrix:
    @pytest.mark.parametrize("n_query, n_points", [(1, 1), (1, 9), (4, 1), (5, 17)])
    def test_matches_scalar_metric(self, n_query, n_points):
        rng = random.Random(n_query * 100 + n_points)
        qs = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n_query)]
        ps = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n_points)]
        got = euclidean_matrix(
            np.array([q[0] for q in qs]),
            np.array([q[1] for q in qs]),
            np.array([p[0] for p in ps]),
            np.array([p[1] for p in ps]),
        )
        assert got.shape == (n_query, n_points)
        d = EuclideanDistance()
        for i, q in enumerate(qs):
            for j, p in enumerate(ps):
                assert got[i, j] == pytest.approx(d(q, p), rel=4e-16, abs=0.0)

    def test_empty_point_set(self):
        got = euclidean_matrix(np.array([0.0]), np.array([0.0]), np.array([]), np.array([]))
        assert got.shape == (1, 0)
