"""The data lives once: the generated datasets are pinned byte for byte,
the APL image shares the database's columns, and no trajectory or point
object outlives a build."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.loader import load_database_jsonl, save_database_jsonl
from repro.data.presets import dataset_from_preset
from repro.index.gat.index import GATConfig, GATIndex
from repro.model.database import TrajectoryDatabase
from repro.model.point import TrajectoryPoint
from repro.model.trajectory import ActivityTrajectory

#: sha256 of ``save_database_jsonl`` output at scale 0.01, as generated
#: before the database became columns (any change moves every baseline).
PINNED = {
    "la": "7300b1269e07eb91a2540995f7e5062b0cabf5ff482eebd5ca8758d5084d00db",
    "ny": "e482c8a446725a2ac810e8573405722a2181970cc5f64bba8c57b121ee6f049e",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_generated_dataset_is_pinned(preset, tmp_path):
    path = tmp_path / f"{preset}.jsonl"
    save_database_jsonl(dataset_from_preset(preset, scale=0.01), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[preset]


def test_save_of_load_is_byte_identical(tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_database_jsonl(dataset_from_preset("la", scale=0.01), first)
    save_database_jsonl(load_database_jsonl(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_apl_image_shares_the_database_columns(tiny_db):
    db = TrajectoryDatabase(tiny_db.columns, tiny_db.vocabulary)
    index = GATIndex.build(db, GATConfig(depth=5, memory_levels=3))
    for name in ("xy", "point_offsets", "ids"):
        assert np.shares_memory(getattr(index.apl.image, name), getattr(db.columns, name)), name
    box = index.grid.box
    point = TrajectoryPoint((box.min_x + box.max_x) / 2, (box.min_y + box.max_y) / 2, frozenset({0}))
    index.insert_trajectory(ActivityTrajectory(10**6, [point]))
    for name in ("xy", "point_offsets", "ids"):  # an append publishes new shared arrays
        assert getattr(index.apl.image, name) is getattr(db.columns, name), name


def test_no_trajectory_object_outlives_a_build():
    """In a fresh interpreter: generate, build, collect, count — then one
    view, to show the count sees them."""
    script = (
        "import gc\n"
        "from repro.data.presets import dataset_from_preset\n"
        "from repro.index.gat.index import GATIndex\n"
        "from repro.model.point import TrajectoryPoint\n"
        "from repro.model.trajectory import ActivityTrajectory\n"
        "def alive():\n"
        "    gc.collect()\n"
        "    kinds = (ActivityTrajectory, TrajectoryPoint)\n"
        "    return sum(isinstance(o, kinds) for o in gc.get_objects())\n"
        "db = dataset_from_preset('la', scale=0.01)\n"
        "index = GATIndex.build(db)\n"
        "print(alive())\n"
        "view = db[0]\n"
        "print(alive())\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "1"]


def test_block_queries_read_no_view(tiny_db, monkeypatch):
    """The block engine scores from arrays: no trajectory view or object
    is built on its query path."""
    from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
    from repro.core.engine import GATSearchEngine

    index = GATIndex.build(tiny_db, GATConfig(depth=5, memory_levels=3))
    queries = [QueryWorkloadGenerator(tiny_db, WorkloadConfig(seed=s)).query() for s in range(4)]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the block path built a trajectory view")

    monkeypatch.setattr(ActivityTrajectory, "view", forbidden)
    monkeypatch.setattr(ActivityTrajectory, "__init__", forbidden)
    engine = GATSearchEngine(index)
    for query in queries:
        assert engine.atsq(query, 5) and engine.oatsq(query, 5) is not None
