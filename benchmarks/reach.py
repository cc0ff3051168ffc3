#!/usr/bin/env python
"""Reach table: which ``src/repro`` functions no entry point enters.

    python benchmarks/reach.py            # run the sweep, print the table
    python benchmarks/reach.py --check    # ... and gate it on reach_allow.txt

Runs a fixed list of entry points — the CLI subcommands and serving
shapes, the examples, every workload of ``benchmarks/e2e/run.py`` at
``--trace 0`` and ``--trace 1``, every ``bench_*.py`` under
``--benchmark-disable`` and ``obs_smoke.py`` — each in its own
interpreter under a ``sys.setprofile`` / ``threading.setprofile`` hook
that records every code object entered.  Functions are found with
:mod:`ast` and keyed by ``(file, co_firstlineno)``; for a decorated
function that is its first decorator's line.  The table lists, per file,
every unreached function (dunders exempt; a function nested in an
unreached one goes with its parent) with its line span.

``--check`` exits non-zero when an unreached function is missing from
``reach_allow.txt`` (one ``path::qualname  need`` per line), or when an
allowlisted function is reached or gone — so the list cannot rot.

Two pitfalls the collector handles:

* pytest-benchmark's ``PauseInstrumentation`` clears ``sys.setprofile``
  around timed calls; ``--benchmark-disable`` makes ``benchmark(...)`` and
  ``benchmark.pedantic`` call their target once, unpaused.
* forked process-pool workers leave through ``os._exit``, which skips
  ``atexit``; the hook wraps ``os._exit`` to dump first.

Benchmarks run at ``REPRO_BENCH_SCALE`` (0.01 unless set).  After the
dataset-writing entry, entries run two at a time; an entry that outlives
``ENTRY_TIMEOUT_S`` fails under its label.  The entries add up to about
13 minutes on a 2-core machine.  Reach must not depend on timing: no
entry sets a hedge delay, since whether a hedge fires (and whether the
adaptive delay's quantile is read) depends on how fast attempts finish.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW_PATH = HERE / "reach_allow.txt"
JOBS = 2
ENTRY_TIMEOUT_S = 600

Key = Tuple[str, int]


# ----------------------------------------------------------------------
# Collector (runs inside each entry point's interpreter)
# ----------------------------------------------------------------------
class Collector:
    """Records every code object entered, in every thread and in forked
    children, and writes the ``(file, co_firstlineno)`` pairs of those
    under *prefix* to one file per process in *out_dir*."""

    def __init__(self, out_dir: str, prefix: str) -> None:
        self.out_dir = out_dir
        self.prefix = prefix
        # id -> code; holding the code object keeps its id from being reused.
        self.seen: Dict[int, object] = {}
        self._dumped_pid: Optional[int] = None

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in self.seen:
                self.seen[id(code)] = code

    def start(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        atexit.register(self.dump)
        real_exit = os._exit

        def _exit(status):
            self.dump()
            real_exit(status)

        os._exit = _exit

    def dump(self) -> None:
        pid = os.getpid()
        if self._dumped_pid == pid:
            return
        self._dumped_pid = pid
        lines = set()
        for code in list(self.seen.values()):
            path = os.path.realpath(code.co_filename)
            if path.startswith(self.prefix):
                lines.add(f"{path}\t{code.co_firstlineno}\n")
        out = Path(self.out_dir) / f"{pid}-{time.monotonic_ns()}.txt"
        out.write_text("".join(sorted(lines)))


def _collect_and_run(out_dir: str, package: str, kind: str, target: str, args: List[str]) -> int:
    """Child side of one entry: start the collector on *package*'s files,
    then run *target* as a script, a module or a pytest session."""
    Collector(out_dir, os.path.realpath(package) + os.sep).start()
    try:
        if kind == "pytest":
            import pytest

            return int(pytest.main([target, *args]))
        sys.argv = [target, *args]
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.path[0] = str(Path(target).resolve().parent)
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
class Entry(NamedTuple):
    label: str
    kind: str  # "script" | "module" | "pytest"
    target: str
    args: Tuple[str, ...] = ()


def entries(work: Path) -> List[Entry]:
    """The fixed sweep.  *work* is a scratch directory for the CLI's
    dataset and outputs; every entry runs with it as the working
    directory, so files a bench writes to the cwd land there."""
    db = str(work / "db.npz")
    small = (db, "--depth", "4")
    batch = (*small, "--batch", "8")
    cli = [
        ("generate", ("generate", "--users", "80", "--venues", "200",
                      "--vocabulary", "100", "--seed", "3", "-o", db)),
        ("generate-preset", ("generate", "--preset", "la", "--scale", "0.005",
                             "-o", str(work / "la.npz"))),
        ("stats", ("stats", db)),
        ("query", ("query", *small, "--k", "3", "--explain")),
        ("query-ordered", ("query", *small, "--order-sensitive", "--kernel", "scalar")),
        ("query-service", ("query", *batch, "--workers", "2")),
        ("query-thread-shards", ("query", *batch, "--shards", "2")),
        ("query-process-shards", ("query", *batch, "--shards", "2", "--executor", "process",
                                  "--shard-strategy", "spatial")),
        ("query-serial-shards", ("query", *batch, "--shards", "2", "--executor", "serial")),
        ("query-replicas", ("query", *batch, "--shards", "2", "--replicas", "2")),
        ("query-fault-policy", ("query", *batch, "--shards", "2", "--deadline-ms", "2000",
                                "--task-retries", "1")),
        ("trace", ("trace", *small, "--batch", "4", "-o", str(work / "spans.jsonl"))),
        ("metrics", ("metrics", *small, "--batch", "4")),
        ("sweep", ("sweep", db, "--figure", "k", "--queries", "1")),
        ("serve-bench", ("serve-bench", *small, "--rate", "20", "--duration", "1",
                         "--workload", "8")),
        *(
            (f"serve-bench-{shape}", ("serve-bench", *small, "--rate", "20", "--duration", "1",
                                      "--workload", "8", "--arrivals", shape, "--period", "0.5"))
            for shape in ("diurnal", "square")
        ),
    ]
    out = [Entry(f"cli {label}", "module", "repro.cli", args) for label, args in cli]
    out += [
        Entry(f"example {path.stem}", "script", str(path))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    e2e = ROOT / "benchmarks" / "e2e" / "run.py"
    for workload in ("cpu_default", "cpu_heavy", "io_cold", "stack_closed"):
        for trace in ("0", "1"):
            out.append(Entry(f"e2e {workload} trace={trace}", "script", str(e2e),
                             ("--workload", workload, "--seconds", "1", "--trace", trace)))
    out += [
        Entry(f"bench {path.stem}", "pytest", str(path),
              ("-q", "-p", "no:cacheprovider", "--benchmark-disable"))
        for path in sorted(HERE.glob("bench_*.py"))
    ]
    out.append(Entry("obs_smoke", "script", str(HERE / "obs_smoke.py")))
    return out


def run_entry(entry: Entry, work: Path, dumps: Path) -> Tuple[int, float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.setdefault("REPRO_BENCH_SCALE", "0.01")
    command = [sys.executable, str(Path(__file__).resolve()), "--collect", str(dumps),
               str(PACKAGE), entry.kind, entry.target, *entry.args]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                              timeout=ENTRY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, time.perf_counter() - started, f"timed out after {ENTRY_TIMEOUT_S} s"
    return done.returncode, time.perf_counter() - started, done.stdout[-2000:] + done.stderr[-2000:]


def sweep(selected: Sequence[Entry], work: Path, dumps: Path) -> List[str]:
    """Run the first entry (it writes the CLI's dataset), then the rest
    ``JOBS`` at a time; returns the labels of the entries that failed."""
    failed: List[str] = []

    def one(entry: Entry) -> None:
        status, seconds, tail = run_entry(entry, work, dumps)
        print(f"  {seconds:6.1f} s  exit {status}  {entry.label}", file=sys.stderr, flush=True)
        if status != 0:
            failed.append(entry.label)
            print(tail, file=sys.stderr)

    one(selected[0])
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        list(pool.map(one, selected[1:]))
    return failed


def reached_keys(dumps: Path, root: Path = SRC) -> Set[Key]:
    """Every ``(file relative to root, co_firstlineno)`` the dumps hold."""
    root = Path(os.path.realpath(root))
    out: Set[Key] = set()
    for path in dumps.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            out.add((str(Path(filename).relative_to(root)), int(lineno)))
    return out


# ----------------------------------------------------------------------
# Functions and the table
# ----------------------------------------------------------------------
class Function(NamedTuple):
    path: str  # relative to the package's parent, e.g. "repro/index/rtree.py"
    qualname: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    last: int
    parent: Optional[Key]  # enclosing function, if nested in one

    @property
    def key(self) -> Key:
        return (self.path, self.first)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def is_dunder(self) -> bool:
        leaf = self.qualname.rsplit(".", 1)[-1]
        return leaf.startswith("__") and leaf.endswith("__")


def functions_in(path: Path, root: Path = SRC) -> List[Function]:
    rel = str(path.relative_to(root))
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str, parent: Optional[Key]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                fn = Function(rel, prefix + child.name, first, child.end_lineno, parent)
                found.append(fn)
                visit(child, fn.qualname + ".<locals>.", fn.key)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def all_functions(package: Path = PACKAGE) -> List[Function]:
    return [
        fn for path in sorted(package.rglob("*.py")) for fn in functions_in(path, package.parent)
    ]


def unreached(functions: Iterable[Function], reached: Set[Key]) -> List[Function]:
    """Non-dunder functions never entered, outermost first: one nested in
    an unreached function is left to its parent."""
    return [
        fn for fn in functions
        if fn.key not in reached and not fn.is_dunder
        and (fn.parent is None or fn.parent in reached)
    ]


def format_table(functions: Sequence[Function], reached: Set[Key]) -> str:
    dead = unreached(functions, reached)
    out: List[str] = []
    current = None
    for fn in dead:
        if fn.path != current:
            current = fn.path
            out.append(current)
        out.append(f"  {fn.first:5d}-{fn.last:<5d} {fn.lines:4d}  {fn.qualname}")
    entered = sum(fn.key in reached for fn in functions)
    out.append(
        f"{len(functions)} functions ({sum(fn.lines for fn in functions)} def lines), "
        f"{entered} entered; {len(dead)} unreached non-dunder "
        f"({sum(fn.lines for fn in dead)} def lines)"
    )
    return "\n".join(out)


def read_allowlist(path: Path = ALLOW_PATH) -> Dict[str, str]:
    """``path::qualname`` -> its need; blank lines and ``#`` comments skipped."""
    allow: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, need = line.partition(" ")
        if not need.strip():
            raise ValueError(f"{path.name}:{number}: {name} names no need")
        allow[name] = need.strip()
    return allow


def check(functions: Sequence[Function], reached: Set[Key], allow: Dict[str, str]) -> List[str]:
    """Problems that fail ``--check``: unreached and not allowlisted,
    allowlisted and reached, allowlisted and gone."""
    dead = {fn.name for fn in unreached(functions, reached)}
    live = {fn.name for fn in functions} - dead
    problems = [f"unreached, not in {ALLOW_PATH.name}: {name}" for name in sorted(dead - set(allow))]
    for name in sorted(set(allow) - dead):
        state = "reached" if name in live else "gone"
        problems.append(f"allowlisted but {state}: {name}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--collect"]:
        out_dir, package, kind, target, *rest = argv[1:]
        return _collect_and_run(out_dir, package, kind, target, rest)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless the unreached set equals {ALLOW_PATH.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work, dumps = Path(tmp) / "work", Path(tmp) / "dumps"
        work.mkdir()
        dumps.mkdir()
        failed = sweep(entries(work), work, dumps)
        reached = reached_keys(dumps)
    functions = all_functions()
    print(format_table(functions, reached))
    status = 0
    if failed:
        print(f"{len(failed)} entries exited non-zero: {', '.join(failed)}", file=sys.stderr)
        status = 1
    if args.check:
        problems = check(functions, reached, read_allowlist())
        for problem in problems:
            print(problem)
        print(f"reach check: {len(problems)} problem(s)")
        status = status or int(bool(problems))
    return status


if __name__ == "__main__":
    sys.exit(main())
