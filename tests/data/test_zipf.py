"""Unit tests for the Zipf sampler."""

import random
from collections import Counter

import pytest

from repro.data.zipf import ZipfSampler


def _draw(z, rng, n):
    return [z.sample(rng) for _ in range(n)]


class TestConstruction:
    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, exponent=-0.5)

    def test_exponent_zero_is_uniform(self):
        counts = Counter(_draw(ZipfSampler(10, 0.0), random.Random(6), 20_000))
        for rank in range(10):
            assert counts[rank] / 20_000 == pytest.approx(0.1, abs=0.01)


class TestSampling:
    def test_samples_in_range(self):
        z = ZipfSampler(20, 1.0)
        rng = random.Random(1)
        for _ in range(500):
            assert 0 <= z.sample(rng) < 20

    def test_head_dominates(self):
        z = ZipfSampler(1000, 1.0)
        rng = random.Random(2)
        counts = Counter(_draw(z, rng, 20_000))
        # Rank 0 should be sampled far more than rank 500.
        assert counts[0] > 20 * max(1, counts.get(500, 0))

    def test_empirical_matches_pmf(self):
        z = ZipfSampler(10, 1.0)
        rng = random.Random(3)
        n = 50_000
        counts = Counter(_draw(z, rng, n))
        harmonic = sum(1.0 / (r + 1) for r in range(10))
        for rank in range(10):
            assert counts[rank] / n == pytest.approx(1.0 / (rank + 1) / harmonic, abs=0.01)

    def test_sample_distinct_returns_k_unique(self):
        z = ZipfSampler(100, 1.0)
        rng = random.Random(4)
        picked = z.sample_distinct(rng, 10)
        assert len(picked) == len(set(picked)) == 10
        assert picked == sorted(picked)
        assert all(0 <= r < 100 for r in picked)

    def test_sample_distinct_whole_vocabulary(self):
        z = ZipfSampler(5, 1.0)
        rng = random.Random(5)
        assert z.sample_distinct(rng, 5) == [0, 1, 2, 3, 4]
        assert z.sample_distinct(rng, 50) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("exponent", [0.5, 1.5, 2.0])
    def test_empirical_matches_pmf_for_exponent(self, exponent):
        z = ZipfSampler(6, exponent)
        n = 40_000
        counts = Counter(_draw(z, random.Random(7), n))
        norm = sum(1.0 / (r + 1) ** exponent for r in range(6))
        for rank in range(6):
            want = 1.0 / (rank + 1) ** exponent / norm
            assert counts[rank] / n == pytest.approx(want, abs=0.01)

    def test_sample_distinct_falls_back_to_low_ranks(self):
        """A near-zero try budget leaves rejection sampling short; the
        remainder is filled from the lowest unused ranks."""
        z = ZipfSampler(1000, 3.0)
        picked = z.sample_distinct(random.Random(8), 5, max_tries=0)
        assert picked == [0, 1, 2, 3, 4]

    def test_deterministic_given_seed(self):
        z = ZipfSampler(50, 1.3)
        a = _draw(z, random.Random(42), 100)
        b = _draw(z, random.Random(42), 100)
        assert a == b
