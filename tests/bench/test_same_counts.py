"""``benchmarks/same_counts.py``: two ``run.py --trace 1`` outputs, equal
in every count and ratio metric but ``bench.*``, or not."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "same_counts.py"


@pytest.fixture(scope="module")
def same_counts():
    spec = importlib.util.spec_from_file_location("same_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_output(tmp_path, name, correct=True, **values):
    metrics = {
        "core.score_ms": {"value": 1.5, "unit": "ms"},
        "core.candidates_per_query": {"value": 57.25, "unit": "count"},
        "core.filter_pass_ratio": {"value": 0.25, "unit": "ratio"},
        "bench.trace_overhead_ratio": {"value": 1.02, "unit": "ratio"},
    }
    for key, value in values.items():
        metrics[key.replace("__", ".")]["value"] = value
    record = {"correct": correct, "attempted": 4, "failed": 0, "metrics": metrics}
    path = tmp_path / name
    path.write_text(
        "# cpu_default (CPU result): 2000 trajectories\ncore.score_ms 1.5 ms\n"
        + json.dumps(record) + "\n"
    )
    return str(path)


def test_equal_counts_pass_whatever_the_times_and_bench_ratios(same_counts, tmp_path, capsys):
    parent = _run_output(tmp_path, "parent.txt")
    change = _run_output(
        tmp_path, "change.txt", core__score_ms=0.9, bench__trace_overhead_ratio=1.3
    )
    assert same_counts.main([parent, change]) == 0
    assert "same counts: 2 metrics" in capsys.readouterr().out


def test_every_differing_count_or_ratio_is_named(same_counts, tmp_path, capsys):
    parent = _run_output(tmp_path, "parent.txt")
    change = _run_output(
        tmp_path, "change.txt", core__candidates_per_query=57.5, core__filter_pass_ratio=0.3
    )
    assert same_counts.main([parent, change]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "core.candidates_per_query", "core.filter_pass_ratio",
    ]


def test_an_incorrect_run_fails(same_counts, tmp_path, capsys):
    parent = _run_output(tmp_path, "parent.txt")
    change = _run_output(tmp_path, "change.txt", correct=False)
    assert same_counts.main([parent, change]) == 1
    assert "change: correct is False" in capsys.readouterr().out


def test_a_file_without_a_metrics_line_is_an_error(same_counts, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n{\"not\": \"metrics\"}\n")
    with pytest.raises(ValueError):
        same_counts.main([str(empty), str(empty)])
