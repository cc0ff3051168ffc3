#!/usr/bin/env python
"""A/B pairs of the end-to-end benchmark: a parent commit against a change.

    python benchmarks/ab.py PARENT CHANGE --workload W --pairs N [--seed S]
                            [--trace] [--record PR]

Checks each commit out into its own temporary ``git worktree`` (removed
afterwards) and runs ``benchmarks/e2e/run.py --trace 0`` there — the
command ``BENCHMARK.json`` declares, for its ``run_seconds`` — once per side per pair, alternating
which side runs first so that drift in the machine's speed does not
favour one side.  Prints, per end-to-end metric, each side's median, the
parent's interquartile range, the change's median gap and the pairs the
change won (better by the metric's direction in ``BENCHMARK.json``, read
from the current checkout).  A claimed gain needs the change to win
nearly every pair by a median gap larger than the parent's IQR.

With ``--trace``, each side also runs ``run.py --trace 1`` once, on the
same seed: the per-layer split of both is printed, and their count and
ratio metrics are compared with ``same_counts.py`` (exit 1 if any
differs).  ``--pairs 0 --trace`` is that check alone.

With ``--record PR``, one JSON line is appended to
``benchmarks/trajectory.jsonl``: the PR, both commits, the workload, the
seed, the pairs, per end-to-end metric the medians, the parent's IQR and
the pairs won, whether every run read ``correct: true``, the median
yardstick ratio over every run (each ``run.py`` prints one, as a
``# yardstick:`` comment line), the traced runs' stage split
(``--trace``), and the box (``nproc``, the CPU model).

Exits 1 when any run does not read ``correct: true``, and stops at once
on a run that prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: The committed perf record: one JSON line per claim (``--record``).
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"


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


#: ``run.py``'s box-speed comment, printed at either ``--trace`` setting.
YARDSTICK = re.compile(r"^# yardstick: .*?([0-9.]+)x its nominal", re.MULTILINE)


def e2e_runner(trees: Dict[str, Path], command: List[str]) -> Callable[[str], dict]:
    """``run(side)``: *command* in that side's tree, its last output line
    as the result, with the ratio of its ``# yardstick:`` line (when it
    prints one) as ``yardstick_ratio``."""

    def run(side: str) -> dict:
        done = subprocess.run(command, cwd=trees[side], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{side}: {' '.join(command)} printed no result:\n{done.stdout}{done.stderr}")
        match = YARDSTICK.search(done.stdout)
        if match:
            result["yardstick_ratio"] = float(match.group(1))
        return result

    return run


def same_counts_module():
    """``benchmarks/same_counts.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("same_counts", ROOT / "benchmarks" / "same_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare_traces(traces: Dict[str, dict]) -> List[str]:
    """Print both traced runs' per-layer split; return ``same_counts``'
    lines (empty when every count and ratio is equal)."""
    same_counts = same_counts_module()
    parent, change = (traces[side]["metrics"] for side in SIDES)
    print(f"{'layer':34s} {'parent':>10s} {'change':>10s}")
    for name, entry in parent.items():
        if entry["unit"] in ("ms", "s"):
            theirs = change.get(name, {}).get("value", float("nan"))
            print(f"{name:34s} {entry['value']:10.4g} {theirs:10.4g}")
    lines = same_counts.differences(traces["parent"], traces["change"])
    for line in lines:
        print(line)
    if not lines:
        print(f"same counts: {len(same_counts.counted(traces['parent']))} metrics")
    return lines


def commit_id(name: str) -> str:
    """*name*'s full commit id in this repository (*name* when git cannot
    resolve it)."""
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "-q", name + "^{commit}"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else name


def cpu_model() -> Optional[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)


def record_line(args, rows: List[dict], correct: bool, runs: Dict[str, List[dict]],
                traces: Optional[Dict[str, dict]], same: Optional[bool]) -> dict:
    """The ``--record`` line for these pairs (and traced runs); its
    yardstick ratio is the median over every run that reported one."""
    ratios = [run["yardstick_ratio"] for side in SIDES for run in runs[side] if "yardstick_ratio" in run]
    line = {
        "pr": args.record, "parent": commit_id(args.parent), "change": commit_id(args.change),
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "metrics": {row["metric"]: {key: row[key] for key in ("parent", "change", "parent_iqr", "won")}
                    for row in rows},
        "correct": correct, "yardstick_ratio": None, "same_counts": same, "stages": None,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "backfilled": False,
    }
    if traces is not None:
        metrics = {side: traces[side]["metrics"] for side in SIDES}
        ratios += [metrics[side]["bench.yardstick_ratio"]["value"] for side in SIDES]
        line["stages"] = {
            name: [metrics["parent"][name]["value"], metrics["change"].get(name, {}).get("value")]
            for name, entry in metrics["parent"].items() if entry["unit"] == "ms"
        }
    if ratios:
        line["yardstick_ratio"] = statistics.median(ratios)
    return line


def main(argv=None, runner=None, tracer=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20130408)
    parser.add_argument("--trace", action="store_true",
                        help="also one run.py --trace 1 per side: stage split and same_counts.py")
    parser.add_argument("--record", type=int, metavar="PR",
                        help="append the result to benchmarks/trajectory.jsonl as PR's line")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
    ]
    with ExitStack() as stack:
        if runner is None or (args.trace and tracer is None):
            trees = {side: stack.enter_context(worktree(getattr(args, side))) for side in SIDES}
            runner = runner or e2e_runner(trees, command + ["--trace", "0"])
            tracer = tracer or e2e_runner(trees, command + ["--trace", "1"])
        runs = run_pairs(runner, args.pairs)
        traces = {side: tracer(side) for side in SIDES} if args.trace else None
    rows = []
    if args.pairs:
        print(f"# {args.workload}, seed {args.seed}: {args.parent} -> {args.change}, "
              f"{args.pairs} alternating pairs")
        rows = summarize(runs, spec["end_to_end"])
        print(report(rows))
    wrong = [(side, i) for side in SIDES for i, r in enumerate(runs[side]) if not r["correct"]]
    for side, i in wrong:
        print(f"# {side} run {i + 1} is not correct")
    same = None
    if traces is not None:
        print(f"# {args.workload}, seed {args.seed}: run.py --trace 1, once per side")
        same = not compare_traces(traces)
    if args.record is not None:
        with TRAJECTORY.open("a") as out:
            out.write(json.dumps(record_line(args, rows, not wrong, runs, traces, same)) + "\n")
    return 1 if wrong or same is False else 0


if __name__ == "__main__":
    sys.exit(main())
