"""Build time and memory at scale: one preset, one depth-8 GAT index.

    PYTHONPATH=src python benchmarks/scale_memory.py --preset la --scale 0.25

Generates the preset at the given scale, builds one ``GATIndex`` with
``GATConfig(depth=8)``, and prints ROADMAP's "building at scale" row:
generation and build wall seconds, the process's resident set size after
generation and after the build, the size of the APL image, and then —
measured after the RSS, each searcher dropped before the next — the
wall seconds of building the IL, RT and IRT baselines, and of saving
the database to an ``.npz`` in a temporary directory and loading it
back (the reload's columns must equal the generated ones).  The last
line of standard output is the row as one JSON object.

RSS is the current resident set (``VmRSS``), read after a
``gc.collect()``; the APL figure is the ``nbytes`` of every array of
``index.apl.image``, including the coordinate, offset and id columns it
shares with the database; the HICL figure is the ``nbytes`` of the
in-memory levels' byte rows (``index.hicl.levels``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.baselines import InvertedListSearch, IRTreeSearch, RTreeSearch  # noqa: E402
from repro.data.loader import load_database, save_database  # noqa: E402
from repro.data.presets import dataset_from_preset  # noqa: E402
from repro.index.gat.index import GATConfig, GATIndex  # noqa: E402
from repro.model.trajectory import TrajectoryColumns  # noqa: E402


def rss_mb() -> float:
    """Current resident set size in MB (Linux ``/proc``)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="la", choices=("la", "ny"))
    parser.add_argument("--scale", type=float, default=0.25)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    db = dataset_from_preset(args.preset, scale=args.scale)
    generate_s = time.perf_counter() - t0
    gc.collect()
    rss_generated = rss_mb()

    t0 = time.perf_counter()
    index = GATIndex.build(db, GATConfig(depth=8))
    build_s = time.perf_counter() - t0
    gc.collect()
    rss_built = rss_mb()
    apl_mb = sum(array.nbytes for array in index.apl.image if isinstance(array, np.ndarray)) / 2**20
    hicl_mb = sum(rows.nbytes for rows in index.hicl.levels.rows if rows is not None) / 2**20

    baseline_s = {}
    for name, searcher in (("il", InvertedListSearch), ("rt", RTreeSearch), ("irt", IRTreeSearch)):
        t0 = time.perf_counter()
        searcher(db)
        baseline_s[name] = time.perf_counter() - t0
        gc.collect()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.npz"
        t0 = time.perf_counter()
        save_database(db, path)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = load_database(path)
        load_s = time.perf_counter() - t0
    for field in fields(TrajectoryColumns):
        name = field.name
        assert np.array_equal(
            getattr(loaded.columns, name), getattr(db.columns, name), equal_nan=name == "timestamps"
        ), f"the reloaded {name} differs"
    assert list(loaded.vocabulary.names()) == list(db.vocabulary.names()) and loaded.name == db.name
    del loaded

    row = {
        "preset": args.preset,
        "scale": args.scale,
        "trajectories": len(db),
        "points": db.n_points(),
        "generate_s": round(generate_s, 2),
        "build_s": round(build_s, 2),
        "rss_generated_mb": round(rss_generated, 1),
        "rss_built_mb": round(rss_built, 1),
        "apl_mb": round(apl_mb, 1),
        "hicl_mb": round(hicl_mb, 2),
        **{f"{name}_build_s": round(seconds, 2) for name, seconds in baseline_s.items()},
        "save_s": round(save_s, 3),
        "load_s": round(load_s, 3),
    }
    print("| preset | scale | trajectories | points | generate | GAT build "
          "| RSS after generation | RSS after build | APL image | HICL rows "
          "| IL build | RT build | IRT build | save | load |")
    print(
        f"| {args.preset} | {args.scale:g} | {len(db)} | {row['points']} "
        f"| {generate_s:.1f} s | {build_s:.1f} s | {rss_generated:.1f} MB "
        f"| {rss_built:.1f} MB | {apl_mb:.1f} MB | {hicl_mb:.2f} MB "
        f"| {baseline_s['il']:.2f} s | {baseline_s['rt']:.2f} s | {baseline_s['irt']:.2f} s "
        f"| {save_s:.3f} s | {load_s:.3f} s |"
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
