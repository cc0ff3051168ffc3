"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload at 1 % scale with a handful of requests: the command
must print every metric ``BENCHMARK.json`` declares — once, with its unit
— answer correctly, repeat its exact counts, notice a wrong answer, and
leave no timing wrapper installed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans
import stacks
from repro.data.presets import dataset_from_preset

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
QUERIES = 2
EXACT_COUNTS = [
    "core.cells_popped_per_query",
    "core.candidates_per_query",
    "core.validated_per_query",
    "storage.disk_reads_per_query",
]


@pytest.fixture(scope="module")
def small_db():
    return dataset_from_preset("la", scale=0.01)


@pytest.fixture
def invoke(small_db, monkeypatch, capsys, tmp_path):
    """The command on a 1 % database with every request list cut to a few."""
    monkeypatch.setattr(run, "dataset", lambda: small_db)
    monkeypatch.setattr(run, "HERE", tmp_path)  # span files go to tmp_path/out
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "ORACLE_QUERIES", 1)  # the scalar engine is the slow part
    monkeypatch.setattr(stacks, "WARMUP_QUERIES", QUERIES)
    monkeypatch.setattr(run, "WORKLOADS", {
        name: dataclasses.replace(w, queries=QUERIES, trace_queries=QUERIES)
        for name, w in stacks.WORKLOADS.items()
    })

    def _invoke(workload: str, trace: int, seed: int = 1):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
             "--seconds", "0.05"]
        )
        lines = capsys.readouterr().out.splitlines()
        return code, lines, json.loads(lines[-1])

    return _invoke


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric_once_with_its_unit(invoke, workload, trace):
    code, lines, result = invoke(workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= QUERIES and result["attempted"] % QUERIES == 0  # whole passes
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert NAME.fullmatch(name)
        printed = [line.split() for line in lines[:-1] if line.split()[0] == name]
        assert len(printed) == 1, name
        assert printed[0][2] == unit
        assert result["metrics"][name]["unit"] == unit
        if not trace:
            assert result["metrics"][name]["value"] > 0, name


def test_exact_counts_repeat_per_seed_and_wrappers_are_removed(invoke):
    before = [vars(owner)[attr] for owner, attr, _name, _handoff in spans.PATCHES]
    first = invoke("cpu_default", 1, seed=1)[2]["metrics"]
    again = invoke("cpu_default", 1, seed=1)[2]["metrics"]
    other = invoke("cpu_default", 1, seed=2)[2]["metrics"]
    after = [vars(owner)[attr] for owner, attr, _name, _handoff in spans.PATCHES]
    assert all(a is b for a, b in zip(before, after))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == again[name]["value"], name
    assert any(first[n]["value"] != other[n]["value"] for n in EXACT_COUNTS)


def test_wrong_answer_fails_the_command(invoke, monkeypatch):
    search = run.Stack.search

    def drops_the_best(self, request):
        response = search(self, request)
        del response.results[:1]
        return response

    monkeypatch.setattr(run.Stack, "search", drops_the_best)
    code, lines, result = invoke("cpu_default", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("# FAILED query") for line in lines)


def test_spans_link_across_threads_and_self_time_is_an_interval_union():
    recorder = spans.SpanRecorder()
    recorder.qid = 0
    gate = threading.Barrier(2)

    def shard_task():
        span = recorder.open("task", False)
        gate.wait(timeout=5)  # both tasks are open at once: they overlap
        recorder.close(span, False)

    root = recorder.open("fanout", True)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(shard_task) for _ in range(2)]:
            future.result(timeout=5)
    inner = recorder.open("merge", False)
    recorder.close(inner, False)
    recorder.close(root, True)

    recorded = recorder.spans()
    assert [s.name for s in recorded] == ["fanout", "task", "task", "merge"]
    fanout, task_a, task_b, merge = recorded
    assert fanout.parent is None and {s.parent for s in recorded[1:]} == {fanout.sid}
    assert task_a.thread != task_b.thread != fanout.thread
    assert run.tree_errors(spans.by_query(recorded)) == {}
    self_time = spans.self_times(recorded)
    covered = max(task_a.end, task_b.end) - min(task_a.start, task_b.start) + merge.duration
    assert self_time[fanout.sid] == pytest.approx(fanout.duration - covered)
    assert self_time[fanout.sid] >= 0
