"""Compare the count and ratio metrics of two ``run.py --trace 1`` runs.

    python benchmarks/same_counts.py PARENT CHANGE

*PARENT* and *CHANGE* are files holding the output of
``python3 benchmarks/e2e/run.py --workload W --trace 1`` (the whole
output, or just its last line: the last line that is a JSON object with
``metrics`` is read).  Every metric whose unit is ``count`` or ``ratio``
must be equal in the two runs, except the ``bench.*`` ones, which measure
the harness (trace overhead, machine speed) and move run to run.  A
change that only makes the engine faster must leave them all equal on the
single-index workloads; ``stack_closed``'s counts move run to run even on
one commit (two shard threads race on the shared threshold).

Prints one line per metric that differs (or is missing from one run) and
exits 1 if there is any; prints ``same counts: N metrics`` and exits 0
otherwise.  A run that reads ``correct: false`` is reported too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

UNITS = ("count", "ratio")


def last_record(text: str) -> dict:
    """The last line of *text* that parses as a JSON object with metrics."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "metrics" in record:
            return record
    raise ValueError("no JSON line with metrics")


def counted(record: dict) -> Dict[str, float]:
    """The record's count and ratio metrics, without ``bench.*``."""
    return {
        name: entry["value"]
        for name, entry in record["metrics"].items()
        if entry["unit"] in UNITS and not name.startswith("bench.")
    }


def differences(parent: dict, change: dict) -> List[str]:
    """One line per count / ratio metric that differs, and per run that
    reads ``correct: false``."""
    lines = [
        f"{label}: correct is {record.get('correct')!r}"
        for label, record in (("parent", parent), ("change", change))
        if record.get("correct") is not True
    ]
    want, got = counted(parent), counted(change)
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            lines.append(f"{name}: parent {want.get(name)!r} != change {got.get(name)!r}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = (last_record(Path(path).read_text()) for path in args)
    lines = differences(parent, change)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"same counts: {len(counted(parent))} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
