"""Persistence: a database on disk is one ``.npz`` of its columns."""

import io
import re
from dataclasses import fields

import numpy as np
import pytest

from repro.data.loader import load_database, save_database
from repro.data.presets import dataset_from_preset
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import NO_VENUE, ActivityTrajectory, TrajectoryColumns

COLUMNS = [field.name for field in fields(TrajectoryColumns)]


def assert_same_database(a, b):
    for name in COLUMNS:
        left, right = getattr(a.columns, name), getattr(b.columns, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right, equal_nan=name == "timestamps"), name
    assert list(a.vocabulary.names()) == list(b.vocabulary.names())
    assert a.name == b.name


def with_bare_points(db):
    """*db* plus one trajectory with neither timestamps nor venues."""
    db = TrajectoryDatabase(db.columns, db.vocabulary, name=db.name)
    box = db.bounding_box
    db.add(ActivityTrajectory(10**6, [
        TrajectoryPoint(box.min_x, box.min_y, frozenset({0, 1})),
        TrajectoryPoint(box.max_x, box.max_y, frozenset()),
    ]))
    return db


class TestRoundTrip:
    @pytest.mark.parametrize("preset", ["la", "ny"])
    def test_presets_round_trip(self, preset, tmp_path):
        db = dataset_from_preset(preset, scale=0.01)
        save_database(db, tmp_path / "db.npz")
        assert_same_database(load_database(tmp_path / "db.npz"), db)

    def test_missing_timestamps_and_venues_survive(self, tiny_db, tmp_path):
        db = with_bare_points(tiny_db)
        save_database(db, tmp_path / "db.npz")
        loaded = load_database(tmp_path / "db.npz")
        assert_same_database(loaded, db)
        assert np.isnan(loaded.columns.timestamps[-2:]).all()
        assert (loaded.columns.venues[-2:] == NO_VENUE).all()
        assert not np.isnan(loaded.columns.timestamps[:-2]).any()
        assert [p.venue_id for p in loaded.get(10**6)] == [None, None]
        assert loaded.statistics() == db.statistics()

    def test_writes_the_exact_path(self, tiny_db, tmp_path):
        path = tmp_path / "db.bin"
        save_database(tiny_db, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.bin"]
        assert_same_database(load_database(str(path)), tiny_db)

    def test_insert_into_a_loaded_database(self, tiny_db, tmp_path):
        path = tmp_path / "db.npz"
        save_database(tiny_db, path)
        image = path.read_bytes()
        loaded = load_database(path)
        before = loaded.columns
        kept = {name: getattr(before, name).copy() for name in COLUMNS}
        loaded.add(ActivityTrajectory(10**6, [TrajectoryPoint(0.0, 0.0, frozenset({0}))]))
        for name in COLUMNS:
            assert getattr(loaded.columns, name) is not getattr(before, name), name
            assert np.array_equal(getattr(before, name), kept[name], equal_nan=True), name
        assert len(loaded) == len(tiny_db) + 1 and loaded.row_of(10**6) == len(tiny_db)
        assert path.read_bytes() == image
        assert_same_database(load_database(path), tiny_db)


def image(db):
    """The arrays :func:`save_database` writes for *db*, as writable copies."""
    arrays = {name: getattr(db.columns, name).copy() for name in COLUMNS}
    return {**arrays, "vocabulary": np.array(list(db.vocabulary.names())), "name": np.array(db.name)}


def drop(name):
    def edit(arrays):
        del arrays[name]
    return edit


def put(name, value):
    def edit(arrays):
        arrays[name] = value(arrays)
    return edit


def at(name, index, value):
    def edit(arrays):
        arrays[name][index] = value(arrays) if callable(value) else value
    return edit


def swap_points(arrays):
    offsets = arrays["point_offsets"]
    offsets[1], offsets[2] = offsets[2], offsets[1]


def no_rows(arrays):
    empty = TrajectoryColumns.from_points((), ())
    arrays.update({name: getattr(empty, name) for name in COLUMNS})


#: id -> (how the image is broken, what the error says after the path)
MALFORMED = {
    "missing-array": (drop("xy"), "xy is not a file in the archive"),
    "missing-vocabulary": (drop("vocabulary"), "vocabulary is not a file in the archive"),
    "object-array": (
        put("activities", lambda a: a["activities"].astype(object)), "allow_pickle=False"
    ),
    "wrong-dtype": (put("ids", lambda a: a["ids"].astype(np.float64)), "ids must be int64"),
    "xy-not-two-columns": (
        put("xy", lambda a: np.zeros((len(a["xy"]), 3))), "xy must be float64 of shape ("
    ),
    "xy-flat": (put("xy", lambda a: a["xy"].ravel()), "xy must be float64 of shape ("),
    "point-offsets-not-from-zero": (at("point_offsets", 0, 1), "point_offsets must rise from 0 to"),
    "point-offsets-decreasing": (swap_points, "point_offsets must rise from 0 to"),
    "point-offsets-short-of-xy": (
        at("point_offsets", -1, lambda a: len(a["xy"]) - 1), "point_offsets must rise from 0 to"
    ),
    "activity-offsets-past-the-end": (
        at("activity_offsets", -1, lambda a: len(a["activities"]) + 1),
        "activity_offsets must rise from 0",
    ),
    "timestamps-too-short": (
        put("timestamps", lambda a: a["timestamps"][:-1]), "timestamps must be float64 of shape ("
    ),
    "activity-outside-vocabulary": (
        at("activities", 0, lambda a: len(a["vocabulary"])), "is not in the vocabulary"
    ),
    "negative-activity": (at("activities", 0, -1), "activity ids must fit 32 unsigned bits"),
    "non-finite-coordinate": (at("xy", (3, 0), np.nan), "non-finite coordinate"),
    "duplicate-ids": (at("ids", 1, lambda a: a["ids"][0]), "duplicate trajectory IDs"),
    "zero-trajectories": (no_rows, "cannot be empty"),
    "vocabulary-not-names": (
        put("vocabulary", lambda a: np.arange(len(a["vocabulary"]))), "a 1-d array of distinct names"
    ),
    "vocabulary-repeats-a-name": (
        at("vocabulary", 1, lambda a: a["vocabulary"][0]), "a 1-d array of distinct names"
    ),
}


@pytest.mark.parametrize("edit, reason", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_image_names_the_file(tiny_db, tmp_path, edit, reason):
    arrays = image(tiny_db)
    edit(arrays)
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(reason)):
        load_database(path)


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "write",
    [
        lambda path: path.write_text("not an image\n"),
        lambda path: path.write_bytes(b""),
        lambda path: path.write_bytes(b"PK\x03\x04 truncated"),
        lambda path: path.write_bytes(npy_bytes(np.arange(3))),
    ],
    ids=["text", "empty", "broken-zip", "bare-npy"],
)
def test_a_file_that_is_not_an_npz_names_the_file(tmp_path, write):
    path = tmp_path / "db.npz"
    write(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not an .npz image")):
        load_database(path)


def test_a_missing_file_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_database(tmp_path / "absent.npz")


def test_non_finite_coordinate_names_the_trajectory(tiny_db, tmp_path):
    arrays = image(tiny_db)
    arrays["xy"][arrays["point_offsets"][4], 1] = np.inf
    np.savez(tmp_path / "db.npz", **arrays)
    tid = tiny_db.columns.ids[4]
    with pytest.raises(ValueError, match=f"trajectory {tid}: non-finite"):
        load_database(tmp_path / "db.npz")
