"""Unit tests for the synthetic check-in generator."""

import math
import statistics
from collections import Counter

import pytest

from repro.data.generator import CheckInGenerator, GeneratorConfig


def _frequencies(db) -> Counter:
    """activity ID -> occurrences across all points."""
    return Counter(a for tr in db for p in tr for a in p.activities)


def _small(**overrides) -> GeneratorConfig:
    base = dict(
        n_users=120,
        n_venues=400,
        vocabulary_size=200,
        width_km=20.0,
        height_km=16.0,
        n_hotspots=5,
        checkins_per_user_mean=10.0,
        seed=7,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestConfigValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_users=0)
        with pytest.raises(ValueError):
            GeneratorConfig(vocabulary_size=0)

    def test_fraction_ranges(self):
        with pytest.raises(ValueError):
            GeneratorConfig(uniform_fraction=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(venue_topic_bias=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(common_fraction=2.0)
        with pytest.raises(ValueError):
            GeneratorConfig(common_pool_size=0)


class TestGeneratedDatabase:
    def test_one_trajectory_per_user(self):
        db = CheckInGenerator(_small()).generate()
        assert len(db) == 120

    def test_min_checkins_respected(self):
        cfg = _small(checkins_per_user_min=3)
        db = CheckInGenerator(cfg).generate()
        assert all(len(tr) >= 3 for tr in db)

    def test_points_inside_city(self):
        cfg = _small()
        db = CheckInGenerator(cfg).generate()
        for tr in db:
            for p in tr:
                assert -0.01 <= p.x <= cfg.width_km + 0.01
                assert -0.01 <= p.y <= cfg.height_km + 0.01

    def test_deterministic_for_seed(self):
        a = CheckInGenerator(_small(seed=11)).generate()
        b = CheckInGenerator(_small(seed=11)).generate()
        assert len(a) == len(b)
        for tra, trb in zip(a, b):
            assert [p.coord for p in tra] == [p.coord for p in trb]
            assert [p.activities for p in tra] == [p.activities for p in trb]

    def test_different_seed_differs(self):
        a = CheckInGenerator(_small(seed=1)).generate()
        b = CheckInGenerator(_small(seed=2)).generate()
        coords_a = [p.coord for tr in a for p in tr]
        coords_b = [p.coord for tr in b for p in tr]
        assert coords_a != coords_b

    def test_vocabulary_is_frequency_ordered(self):
        db = CheckInGenerator(_small()).generate()
        freq = _frequencies(db)
        counts = [freq.get(i, 0) for i in range(len(db.vocabulary))]
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_activity_skew_head_heavy(self):
        db = CheckInGenerator(_small()).generate()
        freq = _frequencies(db)
        total = sum(freq.values())
        head = sum(freq.get(i, 0) for i in range(20))
        assert head > 0.4 * total  # the common-word tier dominates

    def test_empty_activity_fraction_zero_means_no_empty(self):
        cfg = _small(empty_activity_fraction=0.0)
        db = CheckInGenerator(cfg).generate()
        assert all(p.activities for tr in db for p in tr)

    def test_trajectories_are_spatially_local(self):
        """Home-anchored mobility: trajectory extents are a small fraction
        of the city (what keeps spatial pruning meaningful)."""
        cfg = _small(long_jump_probability=0.0, user_range_km=1.5)
        db = CheckInGenerator(cfg).generate()
        diagonals = []
        for tr in db:
            xs = [p.x for p in tr]
            ys = [p.y for p in tr]
            diagonals.append(math.hypot(max(xs) - min(xs), max(ys) - min(ys)))
        city_diag = math.hypot(cfg.width_km, cfg.height_km)
        assert statistics.median(diagonals) < 0.5 * city_diag

    def test_venue_ids_recorded(self):
        db = CheckInGenerator(_small()).generate()
        assert all(p.venue_id is not None for tr in db for p in tr)

    def test_popular_venues_get_more_checkins(self):
        from collections import Counter

        db = CheckInGenerator(_small(n_users=300)).generate()
        counts = Counter(p.venue_id for tr in db for p in tr)
        sorted_counts = sorted(counts.values(), reverse=True)
        top10 = sum(sorted_counts[:10])
        total = sum(sorted_counts)
        # Power-law venue popularity: the top 10 of 400 venues should take
        # a visibly outsized share of all check-ins.
        assert top10 > 0.08 * total
