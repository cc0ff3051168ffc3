#!/usr/bin/env python
"""A/B pairs of the end-to-end benchmark: a parent commit against a change.

    python benchmarks/ab.py PARENT CHANGE --workload W --pairs N [--seed S]

Checks each commit out into its own temporary ``git worktree`` (removed
afterwards) and runs ``benchmarks/e2e/run.py --trace 0`` there — the
command ``BENCHMARK.json`` declares, for its ``run_seconds`` — once per side per pair, alternating
which side runs first so that drift in the machine's speed does not
favour one side.  Prints, per end-to-end metric, each side's median, the
parent's interquartile range, the change's median gap and the pairs the
change won (better by the metric's direction in ``BENCHMARK.json``, read
from the current checkout).  A claimed gain needs the change to win
nearly every pair by a median gap larger than the parent's IQR.

Exits 1 when any run does not read ``correct: true``, and stops at once
on a run that prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_pairs(run: Callable[[str], dict], pairs: int) -> Dict[str, List[dict]]:
    """*pairs* results of ``run(side)`` per side; pair ``i`` runs the parent
    first when ``i`` is even, the change first when it is odd."""
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of *values* (all three the value when alone)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: Dict[str, List[dict]], end_to_end: List[dict]) -> List[dict]:
    """One row per end-to-end metric: medians, parent IQR, gap, pairs won."""
    rows = []
    for entry in end_to_end:
        name, lower = entry["name"], entry["better"] == "lower"
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        rows.append({
            "metric": name,
            "parent": parent_median,
            "change": change_median,
            "parent_iqr": q3 - q1,
            "gap": change_median - parent_median,
            "won": sum(c < p if lower else c > p for p, c in zip(parent, change)),
            "pairs": len(parent),
        })
    return rows


def report(rows: List[dict]) -> str:
    lines = [f"{'metric':18s} {'parent':>10s} {'change':>10s} {'gap':>8s} {'parent IQR':>10s}  won"]
    for row in rows:
        share = row["gap"] / row["parent"] if row["parent"] else float("nan")
        lines.append(
            f"{row['metric']:18s} {row['parent']:10.4g} {row['change']:10.4g} {share:+8.2%} "
            f"{row['parent_iqr']:10.4g}  {row['won']}/{row['pairs']}"
        )
    return "\n".join(lines)


@contextmanager
def worktree(commit: str) -> Iterator[Path]:
    """*commit* checked out, detached, in a temporary directory."""
    path = Path(tempfile.mkdtemp(prefix="ab-"))
    subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--force", str(path), commit],
        check=True, capture_output=True,
    )
    try:
        yield path
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
            capture_output=True,
        )
        shutil.rmtree(path, ignore_errors=True)


def e2e_runner(trees: Dict[str, Path], command: List[str]) -> Callable[[str], dict]:
    """``run(side)``: *command* in that side's tree, its last output line
    as the result."""

    def run(side: str) -> dict:
        done = subprocess.run(command, cwd=trees[side], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{side}: {' '.join(command)} printed no result:\n{done.stdout}{done.stderr}")

    return run


def main(argv=None, runner=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20130408)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    if runner is None:
        with worktree(args.parent) as parent, worktree(args.change) as change:
            runs = run_pairs(e2e_runner({"parent": parent, "change": change}, command), args.pairs)
    else:
        runs = run_pairs(runner, args.pairs)
    print(f"# {args.workload}, seed {args.seed}: {args.parent} -> {args.change}, "
          f"{args.pairs} alternating pairs")
    print(report(summarize(runs, spec["end_to_end"])))
    wrong = [(side, i) for side in SIDES for i, r in enumerate(runs[side]) if not r["correct"]]
    for side, i in wrong:
        print(f"# {side} run {i + 1} is not correct")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
