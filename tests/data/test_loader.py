"""Unit tests for JSON-lines persistence."""

import re

import pytest

from repro.data.loader import load_database_jsonl, save_database_jsonl
from repro.model.database import TrajectoryDatabase


@pytest.fixture
def db():
    return TrajectoryDatabase.from_raw(
        [
            [(0.0, 0.5, ["a", "b"]), (1.0, 1.5, ["a"])],
            [(2.0, 2.5, []), (3.0, 3.5, ["c"])],
        ],
        name="roundtrip",
    )


class TestRoundTrip:
    def test_full_roundtrip(self, db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database_jsonl(db, path)
        loaded = load_database_jsonl(path)
        assert loaded.name == db.name
        assert len(loaded) == len(db)
        assert list(loaded.vocabulary.names()) == list(db.vocabulary.names())
        for orig, back in zip(db, loaded):
            assert orig.trajectory_id == back.trajectory_id
            assert [p.coord for p in orig] == [p.coord for p in back]
            assert [p.activities for p in orig] == [p.activities for p in back]

    def test_roundtrip_preserves_metadata(self, tmp_path):
        from repro.data.generator import CheckInGenerator, GeneratorConfig

        db = CheckInGenerator(
            GeneratorConfig(n_users=10, n_venues=30, vocabulary_size=20, seed=1)
        ).generate()
        path = tmp_path / "g.jsonl"
        save_database_jsonl(db, path)
        loaded = load_database_jsonl(path)
        for orig, back in zip(db, loaded):
            assert [p.timestamp for p in orig] == [p.timestamp for p in back]
            assert [p.venue_id for p in orig] == [p.venue_id for p in back]

    def test_statistics_survive(self, db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database_jsonl(db, path)
        loaded = load_database_jsonl(path)
        assert loaded.statistics() == db.statistics()


class TestMalformedFiles:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "trajectory", "id": 0, "points": []}\n')
        with pytest.raises(ValueError):
            load_database_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_database_jsonl(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text('{"type": "header", "name": "x", "vocabulary": []}\n')
        with pytest.raises(ValueError):
            load_database_jsonl(path)

    def test_unknown_record_type(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text('{"type": "banana"}\n')
        with pytest.raises(ValueError):
            load_database_jsonl(path)

    def test_blank_lines_ignored(self, db, tmp_path):
        path = tmp_path / "blank.jsonl"
        save_database_jsonl(db, path)
        content = path.read_text().replace("\n", "\n\n")
        path.write_text(content)
        loaded = load_database_jsonl(path)
        assert len(loaded) == len(db)


HEADER = '{"type": "header", "name": "x", "vocabulary": ["a"]}\n'


@pytest.mark.parametrize(
    "line",
    [
        '{"type": "trajectory", "id": 0}',  # no "points"
        '{"type": "trajectory", "id": 0, "points": [[0.0, 1.0]]}',  # 2-field point
        '{"type": "trajectory", "id": 0, "points": [[0.0, 0.0, [5], null, null]]}',  # not in vocab
        '{"type": "trajectory", "id": "7", "points": [[0.0, 0.0, [0], null, null]]}',  # string id
        '{"type": "trajectory", "id": 0, "points": [[0.0, 0.0, [-1], null, null]]}',  # negative
    ],
    ids=["no-points", "two-field-point", "activity-outside-vocabulary", "string-id", "negative-activity"],
)
def test_malformed_trajectory_line_names_file_and_line(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(HEADER + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
        load_database_jsonl(path)


def test_non_finite_coordinate_names_the_trajectory(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text(
        HEADER
        + '{"type": "trajectory", "id": 0, "points": [[0.0, 0.0, [0], null, null]]}\n'
        + '{"type": "trajectory", "id": 9, "points": [[NaN, 0.0, [0], null, null]]}\n'
    )
    with pytest.raises(ValueError, match="trajectory 9: non-finite"):
        load_database_jsonl(path)
