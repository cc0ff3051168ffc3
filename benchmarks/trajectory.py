#!/usr/bin/env python
"""The committed perf record as a trajectory: chained change / parent ratios.

    python benchmarks/trajectory.py [--file PATH] [--workload W]

Reads ``benchmarks/trajectory.jsonl`` (one ``ab.py --record`` line per
claim) and prints, per workload and seed, one row per PR — each end-to-end
metric's ``change / parent`` median ratio — and a last row with their
running product: where the metric stands against the first recorded
parent.  Absolute medians drift between days and boxes; a ratio of two
medians taken in alternating pairs does not, so the product is the
trajectory.  A PR with several lines for one workload and seed is chained
once, by its last line.  A PR marked ``*`` was backfilled from CHANGES.md
prose rather than recorded by ``ab.py``; a metric a line does not carry is
``-`` and left out of the product, whose row says how many PRs it chains.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "trajectory.jsonl"


def load(path: Path) -> List[dict]:
    """The record's lines, in file order."""
    return [json.loads(text) for text in path.read_text().splitlines() if text.strip()]


def chains(lines: List[dict]) -> Dict[Tuple[str, int], List[dict]]:
    """Per ``(workload, seed)``, one line per PR (its last), in PR order."""
    by_pr: Dict[Tuple[str, int], Dict[int, dict]] = {}
    for line in lines:
        by_pr.setdefault((line["workload"], line["seed"]), {})[line["pr"]] = line
    return {key: [prs[pr] for pr in sorted(prs)] for key, prs in by_pr.items()}


def ratio(line: dict, metric: str) -> Optional[float]:
    """``change / parent`` of *metric*'s medians (``None`` when not recorded)."""
    entry = line["metrics"].get(metric)
    if entry is None or not entry["parent"]:
        return None
    return entry["change"] / entry["parent"]


def chained(chain: List[dict], metric: str) -> Tuple[Optional[float], int]:
    """The product of *metric*'s ratios along *chain*, and how many it took."""
    ratios = [r for r in (ratio(line, metric) for line in chain) if r is not None]
    return (math.prod(ratios) if ratios else None, len(ratios))


def render(key: Tuple[str, int], chain: List[dict], metrics: List[str]) -> str:
    """One chain as a table: a row per PR, then the chained product."""
    shown = [m for m in metrics if any(m in line["metrics"] for line in chain)]

    def row(head: str, pairs: str, cells: List[str]) -> str:
        return f"{head:>8s} {pairs:>5s}" + "".join(
            f"  {c:>{max(len(m), 5)}s}" for m, c in zip(shown, cells)
        )

    def number(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.3f}"

    lines = [f"# {key[0]}, seed {key[1]}", row("pr", "pairs", shown)]
    for line in chain:
        head = f"{line['pr']}{'*' if line['backfilled'] else ' '}"
        lines.append(row(head, str(line["pairs"]), [number(ratio(line, m)) for m in shown]))
    products = [chained(chain, m) for m in shown]
    lines.append(row("chained", "", [number(p) for p, _n in products]))
    lines.append(row("of PRs", "", [str(n) for _p, n in products]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", type=Path, default=TRAJECTORY)
    parser.add_argument("--workload", help="only this workload's chains")
    args = parser.parse_args(argv)
    metrics = [e["name"] for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    tables = [
        render(key, chain, metrics)
        for key, chain in sorted(chains(load(args.file)).items())
        if args.workload in (None, key[0])
    ]
    print("\n\n".join(tables))
    print("\n* backfilled from CHANGES.md; cells are change / parent medians, "
          "chained is their product")
    return 0


if __name__ == "__main__":
    sys.exit(main())
