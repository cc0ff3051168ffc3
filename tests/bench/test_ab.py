"""``benchmarks/ab.py``: alternating pairs, medians, IQR, pairs won and the
exit status, on a stub runner (no worktree, no benchmark run), and the
runner's reading of a ``run.py``-shaped output."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(values, correct=None):
    """A runner returning, per side, the next of *values[side]* for every
    end-to-end metric (``qps`` as its inverse), and recording the order."""
    names = [e["name"] for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    streams = {side: iter(v) for side, v in values.items()}
    flags = {side: iter(correct[side]) if correct else itertools.repeat(True) for side in values}
    order = []

    def run(side):
        order.append(side)
        value = next(streams[side])
        metrics = {name: {"value": 1.0 / value if name == "qps" else value} for name in names}
        return {"correct": next(flags[side]), "metrics": metrics}

    return run, order


def test_pairs_alternate_which_side_runs_first(ab):
    run, order = _stub({"parent": [1.0] * 4, "change": [1.0] * 4})
    ab.run_pairs(run, 4)
    assert order == ["parent", "change", "change", "parent"] * 2


def test_medians_iqr_and_pairs_won(ab, capsys):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 12.5, 8.0, 9.5, 9.0]
    run, _order = _stub({"parent": parent, "change": change})
    assert ab.main(["P", "C", "--workload", "cpu_default", "--pairs", "5"], runner=run) == 0
    rows = {row["metric"]: row for row in ab.summarize(
        ab.run_pairs(_stub({"parent": parent, "change": change})[0], 5),
        json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"],
    )}
    cpu = rows["cpu_ms_per_query"]
    assert (cpu["parent"], cpu["change"], cpu["parent_iqr"]) == (12.0, 9.0, 2.0)
    assert (cpu["won"], cpu["pairs"]) == (4, 5)  # lower is better: all but 12.5 vs 11
    assert rows["qps"]["won"] == 4  # higher is better, and qps is the inverse here
    out = capsys.readouterr().out
    assert "cpu_ms_per_query" in out and "4/5" in out


def test_a_run_that_is_not_correct_fails(ab, capsys):
    run, _order = _stub(
        {"parent": [1.0, 1.0], "change": [1.0, 1.0]},
        correct={"parent": [True, True], "change": [True, False]},
    )
    assert ab.main(["P", "C", "--workload", "cpu_default", "--pairs", "2"], runner=run) == 1
    assert "change run 2 is not correct" in capsys.readouterr().out


def _traced(counts):
    """A tracer returning, per side, a ``run.py --trace 1`` record whose
    ``core.cells_popped_per_query`` is ``counts[side]``."""

    def trace(side):
        return {"correct": True, "metrics": {
            "core.retrieve_ms": {"value": 0.5, "unit": "ms"},
            "core.cells_popped_per_query": {"value": counts[side], "unit": "count"},
            "bench.yardstick_ratio": {"value": 1.0, "unit": "ratio"},
        }}

    return trace


def test_trace_alone_passes_on_equal_counts(ab, capsys):
    run, order = _stub({"parent": [], "change": []})
    argv = ["P", "C", "--workload", "cpu_default", "--pairs", "0", "--trace"]
    assert ab.main(argv, runner=run, tracer=_traced({"parent": 457.0, "change": 457.0})) == 0
    out = capsys.readouterr().out
    assert order == [] and "core.retrieve_ms" in out and "same counts: 1 metrics" in out


def test_trace_fails_on_a_count_that_moved(ab, capsys):
    run, _order = _stub({"parent": [1.0] * 2, "change": [1.0] * 2})
    argv = ["P", "C", "--workload", "cpu_default", "--pairs", "2", "--trace"]
    assert ab.main(argv, runner=run, tracer=_traced({"parent": 457.0, "change": 458.0})) == 1
    assert "core.cells_popped_per_query: parent 457.0 != change 458.0" in capsys.readouterr().out


def test_the_runner_reads_the_yardstick_line_and_record_takes_the_median(ab, tmp_path, monkeypatch):
    """``run.py --trace 0`` prints its box speed only as a ``# yardstick:``
    comment: the runner reads it into the result, and a ``--record`` line
    made without ``--trace`` carries the median over every run."""
    program = (
        "import sys; print('# cpu_heavy (CPU result): 42 trajectories'); "
        "print('# yardstick: median 1.800 ms over 97 readings, ' + sys.argv[1] + 'x its nominal "
        "1.50 ms; times below are at nominal speed'); "
        "print('{\"correct\": true, \"metrics\": {}}')"
    )
    run = ab.e2e_runner({"parent": tmp_path, "change": tmp_path}, [sys.executable, "-c", program, "1.20"])
    assert run("parent") == {"correct": True, "metrics": {}, "yardstick_ratio": 1.2}
    silent = ab.e2e_runner({"parent": tmp_path}, [sys.executable, "-c", "print('{\"correct\": true}')"])
    assert silent("parent") == {"correct": True}

    monkeypatch.setattr(ab, "TRAJECTORY", tmp_path / "trajectory.jsonl")
    names = [e["name"] for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    ratios = {"parent": iter([1.1, 1.3, 1.2, 1.4, 1.5]), "change": iter([1.0, 1.6, 1.7, 1.2, 1.3])}

    def stub(side):
        metrics = {name: {"value": 1.0} for name in names}
        return {"correct": True, "metrics": metrics, "yardstick_ratio": next(ratios[side])}

    argv = ["P", "C", "--workload", "cpu_heavy", "--pairs", "5", "--record", "47"]
    assert ab.main(argv, runner=stub) == 0
    (line,) = (tmp_path / "trajectory.jsonl").read_text().splitlines()
    assert json.loads(line)["yardstick_ratio"] == pytest.approx(1.3)
