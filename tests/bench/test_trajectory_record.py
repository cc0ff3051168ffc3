"""``benchmarks/trajectory.jsonl``, the committed perf record: every line a
whole claim — at least five pairs, every run ``correct: true``, metric
names ``BENCHMARK.json``'s — ``ab.py --record`` writes such lines, and
``trajectory.py`` chains them."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {"pr", "parent", "change", "workload", "seed", "pairs", "metrics", "correct",
        "yardstick_ratio", "same_counts", "stages", "nproc", "cpu_model", "backfilled"}


def check_line(line: dict) -> None:
    assert KEYS <= line.keys(), KEYS - line.keys()
    assert line["pairs"] >= 5
    assert line["correct"] is True
    assert line["workload"] in {w["name"] for w in SPEC["workloads"]}
    assert line["metrics"] and set(line["metrics"]) <= {e["name"] for e in SPEC["end_to_end"]}
    for entry in line["metrics"].values():
        assert set(entry) == {"parent", "change", "parent_iqr", "won"}
        assert 0 <= entry["won"] <= line["pairs"]


def test_every_committed_line_is_a_whole_claim():
    lines = [json.loads(text) for text in (ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()]
    assert lines
    for line in lines:
        check_line(line)


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_appends_one_line_of_the_schema(ab, tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "TRAJECTORY", tmp_path / "trajectory.jsonl")
    names = [e["name"] for e in SPEC["end_to_end"]]
    values = {"parent": iter([2.0, 2.2, 2.1, 1.9, 2.0]), "change": iter([1.5, 1.6, 1.4, 1.5, 1.7])}

    def run(side):
        value = next(values[side])
        return {"correct": True, "metrics": {name: {"value": value} for name in names}}

    def trace(side):
        return {"correct": True, "metrics": {
            "core.lower_bound_ms": {"value": 0.1, "unit": "ms"},
            "bench.yardstick_ratio": {"value": 1.1 if side == "parent" else 1.3, "unit": "ratio"},
        }}

    argv = ["P", "C", "--workload", "cpu_default", "--pairs", "5", "--trace", "--record", "46"]
    assert ab.main(argv, runner=run, tracer=trace) == 0
    (text,) = (tmp_path / "trajectory.jsonl").read_text().splitlines()
    line = json.loads(text)
    check_line(line)
    assert (line["pr"], line["parent"], line["change"], line["backfilled"]) == (46, "P", "C", False)
    want = {"parent": 2.0, "change": 1.5, "parent_iqr": 0.1, "won": 5}
    assert line["metrics"]["cpu_ms_per_query"] == pytest.approx(want)
    assert line["yardstick_ratio"] == pytest.approx(1.2) and line["same_counts"] is True
    assert line["stages"] == {"core.lower_bound_ms": [0.1, 0.1]}


@pytest.fixture
def trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_chains_the_committed_record(trajectory, capsys):
    """``trajectory.py`` over the committed file: a table per workload and
    seed, the product of each PR's ``change / parent`` ratio, PRs chained
    once each, and the backfilled ones marked."""
    lines = trajectory.load(trajectory.TRAJECTORY)
    chains = trajectory.chains(lines)
    assert set(chains) == {(line["workload"], line["seed"]) for line in lines}
    for chain in chains.values():
        prs = [line["pr"] for line in chain]
        assert prs == sorted(set(prs))
        for metric, entry in chain[-1]["metrics"].items():
            want = [e["change"] / e["parent"] for e in (l["metrics"].get(metric) for l in chain) if e]
            assert trajectory.chained(chain, metric) == (pytest.approx(math.prod(want)), len(want))
    assert trajectory.main([]) == 0
    out = capsys.readouterr().out
    assert out.count("# ") == len(chains) and out.count("chained") == len(chains) + 1
    for line in lines:
        if line["backfilled"]:
            assert f" {line['pr']}* " in out


def test_trajectory_takes_a_prs_last_line_and_skips_missing_metrics(trajectory, tmp_path, capsys):
    def line(pr, parent, change, backfilled=False, metric="cpu_ms_per_query"):
        entry = {"parent": parent, "change": change, "parent_iqr": 0.1, "won": 5}
        return {"pr": pr, "workload": "cpu_heavy", "seed": 1, "pairs": 5, "backfilled": backfilled,
                "metrics": {metric: entry}}

    record = [line(2, 4.0, 3.0), line(1, 8.0, 4.0, True), line(2, 4.0, 2.0), line(3, 10.0, 11.0, metric="qps")]
    path = tmp_path / "trajectory.jsonl"
    path.write_text("".join(json.dumps(entry) + "\n" for entry in record))
    (chain,) = trajectory.chains(trajectory.load(path)).values()
    assert [entry["pr"] for entry in chain] == [1, 2, 3]
    assert trajectory.chained(chain, "cpu_ms_per_query") == (0.25, 2)  # 4/8 · 2/4, PR 2's last line
    assert trajectory.chained(chain, "qps") == (pytest.approx(1.1), 1)
    assert trajectory.main(["--file", str(path), "--workload", "cpu_heavy"]) == 0
    out = capsys.readouterr().out
    assert "      1*     5" in out and "0.250" in out and "  -" in out
    assert trajectory.main(["--file", str(path), "--workload", "io_cold"]) == 0
    assert "# io_cold" not in capsys.readouterr().out
