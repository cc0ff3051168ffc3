"""Columnar round-trip: ``from_arrays(to_arrays(db))`` equals the original.

Every derived structure the indexes and kernels read — points, posting
lists, activity unions, bounding boxes, activity frequencies — must come
out of the columnar image exactly equal to the object path's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.data.presets import PRESETS, dataset_from_preset
from repro.model.columnar import (
    NO_VENUE,
    arrays_to_trajectories,
    trajectories_to_arrays,
)
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory


def _assert_equivalent(original: TrajectoryDatabase, rebuilt: TrajectoryDatabase):
    assert len(rebuilt) == len(original)
    for a, b in zip(original, rebuilt):
        assert b.trajectory_id == a.trajectory_id
        assert b.points == a.points  # exact: floats round-trip through float64
        assert b.activity_union == a.activity_union
        assert b.posting_lists == a.posting_lists  # dict ==, order-free
        assert b.n_checkins() == a.n_checkins()
        assert np.array_equal(b.coord_array(), a.coord_array())
    assert rebuilt.bounding_box == original.bounding_box
    assert dict(rebuilt.activity_frequencies) == dict(original.activity_frequencies)
    assert rebuilt.statistics() == original.statistics()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_roundtrip_across_generator_presets(preset):
    db = dataset_from_preset(preset, scale=0.002, seed=7)
    rebuilt = TrajectoryDatabase.from_arrays(db.to_arrays(), db.vocabulary, name=db.name)
    _assert_equivalent(db, rebuilt)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_users=st.integers(min_value=1, max_value=25),
    acts_mean=st.floats(min_value=0.5, max_value=4.0),
    empty_fraction=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(seed, n_users, acts_mean, empty_fraction):
    config = GeneratorConfig(
        n_users=n_users,
        n_venues=40,
        vocabulary_size=30,
        width_km=5.0,
        height_km=5.0,
        n_hotspots=2,
        checkins_per_user_mean=6.0,
        activities_per_checkin_mean=acts_mean,
        empty_activity_fraction=empty_fraction,
        seed=seed,
    )
    db = CheckInGenerator(config).generate(name="prop")
    rebuilt = TrajectoryDatabase.from_arrays(db.to_arrays(), db.vocabulary)
    _assert_equivalent(db, rebuilt)


def _handmade():
    return [
        ActivityTrajectory(
            5,
            [
                TrajectoryPoint(0.0, 1.0, frozenset({3, 7}), timestamp=12.5, venue_id=4),
                TrajectoryPoint(2.0, 3.0, frozenset(), timestamp=None, venue_id=None),
            ],
        ),
        ActivityTrajectory(9, [TrajectoryPoint(-1.0, -2.0, frozenset({0}))]),
    ]


def test_none_sentinels_roundtrip():
    """NaN timestamps and -1 venues decode back to ``None`` per point."""
    rebuilt = arrays_to_trajectories(trajectories_to_arrays(_handmade()))
    assert rebuilt[0].points[0].timestamp == 12.5
    assert rebuilt[0].points[0].venue_id == 4
    assert rebuilt[0].points[1].timestamp is None
    assert rebuilt[0].points[1].venue_id is None
    assert rebuilt[1].points[0].activities == frozenset({0})


def test_layout_invariants():
    arrays = trajectories_to_arrays(_handmade())
    assert arrays.n_trajectories == 2
    assert arrays.n_points == 3
    assert arrays.n_postings == 3
    assert arrays.point_offsets[0] == 0 and arrays.point_offsets[-1] == 3
    assert list(np.diff(arrays.point_offsets)) == [2, 1]
    assert all(np.diff(arrays.act_offsets) >= 0)
    assert arrays.xy.shape == (3, 2)
    assert arrays.venues[1] == NO_VENUE
    assert math.isnan(arrays.timestamps[1])
    assert arrays.nbytes() > 0


def test_real_nan_timestamp_rejected():
    bad = [ActivityTrajectory(1, [TrajectoryPoint(0.0, 0.0, timestamp=float("nan"))])]
    with pytest.raises(ValueError, match="NaN"):
        trajectories_to_arrays(bad)


def test_negative_venue_rejected():
    bad = [ActivityTrajectory(1, [TrajectoryPoint(0.0, 0.0, venue_id=-3)])]
    with pytest.raises(ValueError):
        trajectories_to_arrays(bad)


def test_array_backed_lazy_paths_match_materialized():
    """The array fast paths (union / posting lists / n_checkins computed
    without touching ``points``) agree with what materialisation yields."""
    arrays = trajectories_to_arrays(_handmade())
    lazy = arrays_to_trajectories(arrays)
    eager = arrays_to_trajectories(arrays)
    for tr in eager:
        tr.points  # force materialisation first on this copy
    for a, b in zip(lazy, eager):
        assert a.activity_union == b.activity_union
        assert a.posting_lists == b.posting_lists
        assert a.n_checkins() == b.n_checkins()
        assert len(a) == len(b)
