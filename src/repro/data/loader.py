"""Persistence: a trajectory database on disk is its columns.

One uncompressed ``.npz`` holds the seven
:class:`~repro.model.trajectory.TrajectoryColumns` arrays under their
field names, the vocabulary's names in id order (a unicode array) under
``vocabulary`` and the database's name under ``name``.  Saving writes
the arrays as they are; loading reads them without unpickling anything
and builds the database through its constructor, so a file passes the
checks every append runs (:meth:`TrajectoryColumns.check`, fresh unique
ids) plus the one only a file needs: every activity id names an entry
of the file's vocabulary.
"""

from __future__ import annotations

import zipfile
from dataclasses import fields
from pathlib import Path
from typing import Union

import numpy as np

from repro.model.database import TrajectoryDatabase
from repro.model.trajectory import TrajectoryColumns
from repro.model.vocabulary import Vocabulary

PathLike = Union[str, Path]

COLUMNS = tuple(field.name for field in fields(TrajectoryColumns))


def save_database(db: TrajectoryDatabase, path: PathLike) -> None:
    """Write *db* to exactly *path* (``np.savez`` given a bare name would
    append ``.npz``; an open file keeps the name as given)."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            **{name: getattr(db.columns, name) for name in COLUMNS},
            vocabulary=np.array(list(db.vocabulary.names()), dtype=str),
            name=np.array(db.name),
        )


def load_database(path: PathLike) -> TrajectoryDatabase:
    """Read a database written by :func:`save_database`.

    Raises
    ------
    OSError
        If *path* cannot be read.
    ValueError
        If the file is not such an image: not an ``.npz``, an array
        missing or holding objects, or columns that fail the append's
        checks or name an activity outside the vocabulary.  The message
        starts with *path*.
    """
    try:
        image = np.load(path, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not an .npz image") from exc
    if not isinstance(image, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz image (one bare array)")
    try:
        with image:
            columns = TrajectoryColumns(**{name: image[name] for name in COLUMNS})
            names, name = image["vocabulary"], str(image["name"])
        if names.dtype.kind != "U" or names.ndim != 1 or len(np.unique(names)) != len(names):
            raise ValueError("the vocabulary must be a 1-d array of distinct names")
        vocabulary = Vocabulary(names.tolist())
        db = TrajectoryDatabase(columns, vocabulary, name=name)
        if len(columns.activities) and columns.activities.max() >= len(vocabulary):
            raise ValueError(f"activity id {columns.activities.max()} is not in the vocabulary")
        return db
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:  # KeyError: an array is missing
        raise ValueError(f"{path}: {exc}") from exc
