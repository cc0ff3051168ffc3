"""Persistence: save/load a trajectory database as JSON-lines.

Format (one JSON object per line):

* line 1 — header: ``{"type": "header", "name": ..., "vocabulary": [names in
  ID order]}``
* following lines — one per trajectory: ``{"type": "trajectory", "id": ...,
  "points": [[x, y, [activity ids], timestamp|null, venue|null], ...]}``

JSON-lines keeps files streamable and diff-able; activity IDs (not names)
are stored per point so files stay compact, with the vocabulary in the
header making them self-contained.  Both directions work on the
database's columns: saving reads them row by row, loading validates each
line and appends the file's rows as columns — no trajectory or point
object is built either way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.model.database import TrajectoryDatabase
from repro.model.trajectory import PointRecord, TrajectoryColumns
from repro.model.vocabulary import Vocabulary

PathLike = Union[str, Path]


def save_database_jsonl(db: TrajectoryDatabase, path: PathLike) -> None:
    """Write *db* to *path* in the JSON-lines format described above."""
    path = Path(path)
    columns = db.columns
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "type": "header",
            "name": db.name,
            "vocabulary": list(db.vocabulary.names()),
        }
        fh.write(json.dumps(header) + "\n")
        for row, tid in enumerate(columns.ids.tolist()):
            record = {"type": "trajectory", "id": tid, "points": columns.point_records(row)}
            fh.write(json.dumps(record) + "\n")


def _points(record: dict, n_activities: int, where: str) -> List[PointRecord]:
    """The point records of one trajectory line, checked for shape, an
    integer id and activity ids inside the vocabulary."""
    tid, points = record.get("id"), record.get("points")
    if type(tid) is not int:
        raise ValueError(f"{where}: trajectory id {tid!r} is not an integer")
    if not isinstance(points, list) or not points:
        raise ValueError(f'{where}: trajectory {tid} has no "points" list')
    for point in points:
        if not isinstance(point, list) or len(point) != 5 or not isinstance(point[2], list):
            raise ValueError(f"{where}: point {point!r} is not [x, y, [activity ids], time, venue]")
        for activity in point[2]:
            if type(activity) is not int or not 0 <= activity < n_activities:
                raise ValueError(f"{where}: activity id {activity!r} is not in the vocabulary")
    return points


def load_database_jsonl(path: PathLike) -> TrajectoryDatabase:
    """Read a database previously written by :func:`save_database_jsonl`.

    Raises
    ------
    ValueError
        If the file is empty, lacks a header, or contains malformed rows
        (the message names the file and line), or if the rows do not make
        a database (:meth:`TrajectoryDatabase.append`'s checks).
    """
    path = Path(path)
    ids: List[int] = []
    trajectories: List[List[PointRecord]] = []
    vocabulary: Vocabulary | None = None
    name = "dataset"
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "header":
                vocabulary = Vocabulary(record["vocabulary"])
                name = record.get("name", name)
            elif kind == "trajectory":
                if vocabulary is None:
                    raise ValueError(f"{path}: trajectory before header (line {line_no})")
                trajectories.append(_points(record, len(vocabulary), f"{path}, line {line_no}"))
                ids.append(record["id"])
            else:
                raise ValueError(f"{path}: unknown record type {kind!r} (line {line_no})")
    if vocabulary is None:
        raise ValueError(f"{path}: missing header line")
    if not trajectories:
        raise ValueError(f"{path}: no trajectories")
    try:
        return TrajectoryDatabase(
            TrajectoryColumns.from_points(ids, trajectories), vocabulary, name=name
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
