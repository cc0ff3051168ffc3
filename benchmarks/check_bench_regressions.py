#!/usr/bin/env python
"""Perf regression gate over the emitted ``BENCH_*.json`` records.

Each benchmark writes a machine-readable JSON (``BENCH_kernels.json``,
``BENCH_shards.json``, ``BENCH_block.json``); this script diffs freshly
emitted files against the committed baselines in
``benchmarks/baselines/`` and fails when a gated metric regresses beyond
the tolerance band (default: 30 %).

Gated metrics are *ratios* (speedups, cell-expansion ratios), never raw
wall seconds — ratios compare a change against a same-machine control run
inside one benchmark process, so they transfer between the laptop that
seeded the baseline and the CI runner that checks it; absolute timings do
not.

Usage::

    python benchmarks/check_bench_regressions.py                 # gate all
    python benchmarks/check_bench_regressions.py --only BENCH_block.json
    python benchmarks/check_bench_regressions.py --tolerance 0.2

Exit status 0 = no regression; 1 = regression or a gated file the
benchmarks should have produced is missing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

#: metric path -> direction.  "higher" fails when the current value drops
#: more than the tolerance below baseline; "lower" fails when it rises
#: more than the tolerance above.  Paths are dot-separated; a
#: ``name[key=value,...]`` segment selects a dict from a list of dicts.
MANIFEST = {
    "BENCH_kernels.json": {
        "speedup": "higher",  # block over scalar, whole queries
    },
    "BENCH_shards.json": {
        "rows[shards=4,executor=thread].speedup_vs_1shard": "higher",
    },
    "BENCH_process.json": {
        # CPU-bound steady state in the production configuration (block
        # kernel, 2 shards, best of three passes): the process fleet over
        # thread fan-out.  Seeded on two cores (see the "cores" field);
        # the in-benchmark >=1.5x assert is the hard gate, this row
        # catches a slide inside it.  "process_vs_single" rides along in
        # the record ungated.
        "process_vs_thread": "higher",
    },
    "BENCH_replicas.json": {
        # Serialized-arm I/O model: two copies per shard over one.
        "rows[replicas=2].speedup_vs_1replica": "higher",
    },
    "BENCH_block.json": {
        "speedups.single-activity": "higher",  # block over scalar, scoring stage
        "speedups.mixed-default": "higher",
        "speedups.mixed-heavy": "higher",  # 6 x 4 activities, k=20: covers + Dmom DP
        "sharded.cells_ratio": "lower",  # spatial/local over hash/global
    },
    "BENCH_obs.json": {
        # Pay-for-what-you-use: throughput with instrumentation present
        # but disabled, over the uninstrumented baseline.  Same-process
        # alternating best-of ratio, so it transfers across machines.
        "disabled_over_baseline": "higher",
    },
    "BENCH_faults.json": {
        # Correctness ratios of the chaos scenarios — deterministic by
        # construction (the benchmark asserts them at 1.0-style values),
        # gated so a silent contract break shows up as a regression even
        # if someone loosens the in-benchmark asserts.
        "rows[scenario=parity].rankings_exact": "higher",
        "rows[scenario=disk-errors].complete_frac": "higher",
        "rows[scenario=disk-errors].rankings_exact": "higher",
        "rows[scenario=shard-down].mean_coverage_frac": "higher",
        "rows[scenario=worker-kill].complete_frac": "higher",
        "rows[scenario=worker-kill].rankings_exact": "higher",
    },
    "BENCH_serving.json": {
        # Overload envelope of the open-loop front-end.  All ratios
        # against same-process control runs: sustainable load as a
        # fraction of the measured closed-loop capacity, goodput at 2x
        # overload as a fraction of the sweep's peak, and rankings
        # parity of everything answered under overload.  The shed-vs-
        # noshed comparison is asserted in-benchmark but not gated here:
        # the collapsed baseline's goodput is near zero, so its ratio is
        # too noisy to band.
        "sustainable_over_capacity": "higher",
        "overload.shed.goodput_ratio": "higher",
        "overload.shed.rankings_exact": "higher",
    },
}

_SELECTOR = re.compile(r"^(?P<name>[^\[]+)\[(?P<filters>[^\]]+)\]$")


def resolve(payload, path: str):
    """Walk a dot path; ``seg[key=value,...]`` picks a dict from a list."""
    node = payload
    for segment in path.split("."):
        match = _SELECTOR.match(segment)
        if match:
            node = node[match.group("name")]
            filters = dict(
                pair.split("=", 1) for pair in match.group("filters").split(",")
            )
            picked = [
                row
                for row in node
                if all(str(row.get(k)) == v for k, v in filters.items())
            ]
            if len(picked) != 1:
                raise KeyError(
                    f"{segment}: matched {len(picked)} rows, expected exactly 1"
                )
            node = picked[0]
        else:
            node = node[segment]
    return node


def check_file(name: str, baseline_dir: Path, current_dir: Path, tolerance: float):
    """Yield (metric, baseline, current, ok) tuples; raises on a missing
    current file (the benchmarks were supposed to emit it)."""
    baseline_path = baseline_dir / name
    current_path = current_dir / name
    if not current_path.exists():
        raise FileNotFoundError(
            f"{current_path} missing — did the benchmark emitting it run?"
        )
    baseline = json.loads(baseline_path.read_text())
    current = json.loads(current_path.read_text())
    for metric, direction in MANIFEST[name].items():
        base = float(resolve(baseline, metric))
        cur = float(resolve(current, metric))
        if direction == "higher":
            ok = cur >= base * (1.0 - tolerance)
        else:
            ok = cur <= base * (1.0 + tolerance)
        yield metric, direction, base, cur, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).parent / "baselines",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative regression before failing (default 0.30)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="FILE",
        help="gate only these BENCH_*.json names (repeatable)",
    )
    args = parser.parse_args(argv)

    names = args.only if args.only else sorted(MANIFEST)
    unknown = [n for n in names if n not in MANIFEST]
    if unknown:
        parser.error(f"no gate manifest for {unknown}; known: {sorted(MANIFEST)}")

    failures = 0
    for name in names:
        if not (args.baseline_dir / name).exists():
            print(f"{name}: no committed baseline — skipped (seed one to gate it)")
            continue
        try:
            results = list(
                check_file(name, args.baseline_dir, args.current_dir, args.tolerance)
            )
        except FileNotFoundError as exc:
            print(f"{name}: FAIL — {exc}")
            failures += 1
            continue
        for metric, direction, base, cur, ok in results:
            verdict = "ok" if ok else "REGRESSION"
            print(
                f"{name}: {metric} ({direction} is better) "
                f"baseline {base:.3f} -> current {cur:.3f}  {verdict}"
            )
            if not ok:
                failures += 1
    if failures:
        print(f"{failures} gated metric(s) regressed beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print("perf regression gate: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
