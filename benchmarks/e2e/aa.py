"""Noise floor of the benchmark on this machine: every workload twice.

    python3 benchmarks/e2e/aa.py [--seed N]

Runs the same code on the same seed twice and prints, per end-to-end
metric, both values and their relative gap; it fails when a gap exceeds
the metric's bound in ``BENCHMARK.json`` — a gate cannot resolve a change
smaller than the gap two runs of identical code show.  The gaps go to
``out/aa.json`` beside the bounds they were checked against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(spec: dict, workload: str, seed: int) -> Dict[str, float]:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20130408)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    report: Dict[str, Dict[str, dict]] = {}
    over = 0
    for workload in workloads:
        first, second = (run_once(spec, workload, args.seed) for _ in range(2))
        report[workload] = {}
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            gap = abs(second[name] - first[name]) / first[name]
            over += gap > bound
            flag = "  <-- over" if gap > bound else ""
            print(f"{workload:13s} {name:17s} {first[name]:10.4g} {second[name]:10.4g} "
                  f"gap {gap:6.2%} of {bound:4.0%}{flag}")
            report[workload][name] = {
                "values": [first[name], second[name]], "gap": gap, "bound": bound,
            }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "aa.json").write_text(json.dumps({"seed": args.seed, "report": report}, indent=1))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
