"""End-to-end + layer-tax benchmark: one workload per interpreter.

    python3 benchmarks/e2e/run.py --workload cpu_default --seed 1 --seconds 6 --trace 0

builds the workload's stack, drives its fixed seeded request list through
it as a closed loop with one client, checks every answer, and prints each
metric of ``BENCHMARK.json`` by name with its unit; the last line of
standard output is the result as one JSON object.  ``--trace 0`` reports
the end-to-end metrics from uninstrumented passes over the list, repeated
while ``--seconds`` last; ``--trace 1`` replays the head of the list twice
— plain, then under the timing wrappers of :mod:`spans` — and reports the
per-layer metrics.  Times are reported at the speed of a fixed yardstick
loop (:class:`Yardstick`), each beside its value as measured.  Exit status
is non-zero when any answer is wrong.
See the README beside this file for the metric/layer/workload table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pickle
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures that package")
sys.path.insert(0, str(ROOT / "src"))

import spans as spanlib  # noqa: E402
from stacks import (  # noqa: E402
    GAT, WORKLOADS, Stack, Workload, dataset, lead_in_requests, requests, take, warm_up_requests,
)

from repro.core.engine import GATSearchEngine  # noqa: E402
from repro.index.gat.index import GATIndex  # noqa: E402
from repro.obs.metrics import nearest_rank  # noqa: E402
from repro.service.service import QueryRequest, QueryResponse  # noqa: E402

DEFAULT_SEED = 20130408
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Requests at the head of the list that the scalar oracle re-answers.
ORACLE_QUERIES = 24
#: Layer self-times must add up to the measured wall of their query.
COVERAGE_TOLERANCE = 0.05
#: Kernels may differ from the scalar oracle in the last bits only.
DISTANCE_REL_TOL = 1e-9


class Yardstick:
    """A fixed loop, timed beside every measured interval, in whose speed
    the benchmark states its times.

    The sandbox shares its CPUs and memory system.  For seconds, and at
    times for ten minutes on end, everything on it runs 1.2-2x slower;
    CPU time stretches with wall time, and the kernel reports no steal to
    subtract.  As measured, the median of ten runs moved 38-63 % between
    two sets an hour apart, and the quartiles of one set lay 58 % apart
    (README, "Noise") — the driver accepts no bound above 0.25.  So the
    CPU-busy part of each interval is restated at the yardstick's nominal
    speed: multiplied by ``NOMINAL_S / reading``, the reading being the
    mean of the loop's times just before and just after.  Time asleep (the
    simulated disk) is left alone; contention does not stretch a sleep.
    The value as measured is printed beside each.

    The loop decodes a small pickled dict: allocation-heavy, like the
    engine, whose slowdown it tracks one for one (log-log slope 1.1 over
    replays of one request list, residual ~3 %); an arithmetic loop reads
    only two thirds of it.  Code whose mix differs — more time inside
    numpy, say — may slow by another factor, so under load the restated
    time carries a bias of that difference; a claim is therefore made from
    alternating pairs of runs, which share the load.  ``NOMINAL_S`` fixes
    the unit, nothing else: it is the loop's time on this box when quiet,
    so the times read like quiet wall times here; on another box they all
    scale by one factor, which no comparison of two commits sees.
    """

    LOOPS = 300
    BLOB = pickle.dumps({i: tuple(range(i % 7 + 1)) for i in range(40)}, protocol=4)
    NOMINAL_S = 1.50e-3
    #: A reading younger than this is reused: requests of a few ms share one.
    FRESH_S = 0.02

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._taken_at = -math.inf

    def read(self) -> float:
        if time.perf_counter() - self._taken_at < self.FRESH_S:
            return self.readings[-1]
        loads, blob = pickle.loads, self.BLOB
        t0 = time.perf_counter()
        for _ in range(self.LOOPS):
            loads(blob)
        self._taken_at = time.perf_counter()
        self.readings.append(self._taken_at - t0)
        return self.readings[-1]

    def at_nominal(self, wall_s: float, cpu_s: float, reading_s: float) -> float:
        busy = min(cpu_s, wall_s)
        return wall_s - busy * (1.0 - self.NOMINAL_S / reading_s)


def as_measured(wall_s: float, _cpu_s: float, _reading_s: float) -> float:
    return wall_s


class Sample(NamedTuple):
    """One execution of one request."""

    request: QueryRequest
    response: Optional[QueryResponse]
    error: Optional[str]
    latency_s: float
    cpu_s: float
    #: Mean of the yardstick readings taken just before and just after.
    reading_s: float


#: A timed interval: wall seconds, CPU seconds, yardstick reading.
Interval = Tuple[float, float, float]


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def set_up(db, workload: Workload, yardstick: Yardstick) -> Tuple[Stack, List[Interval]]:
    """In-memory database -> first answer possible: build the stack, then
    answer the warm-up requests.  Returns the stack and the timed parts —
    the build, then each warm-up request."""
    before = yardstick.read()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    stack = Stack(db, workload)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    parts = [(wall, cpu, (before + yardstick.read()) / 2)]
    warm_up = drive(stack, warm_up_requests(db, workload), yardstick)
    parts += [(s.latency_s, s.cpu_s, s.reading_s) for s in warm_up]
    return stack, parts


def drive(
    stack: Stack,
    batch: Sequence[QueryRequest],
    yardstick: Yardstick,
    recorder: Optional[spanlib.SpanRecorder] = None,
) -> List[Sample]:
    """One pass over *batch* as a closed loop with one client: the next
    request is sent when the previous answer is back.  Only the call into
    the stack is timed."""
    samples: List[Sample] = []
    for i, request in enumerate(batch):
        stack.before_query()
        before = yardstick.read()
        if recorder is not None:
            recorder.qid = i
        response = error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            response = stack.search(request)
        except Exception as exc:  # refused, expired or failed: counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if recorder is not None:
            recorder.qid = None
        reading = (before + yardstick.read()) / 2
        samples.append(Sample(request, response, error, latency, cpu, reading))
    return samples


def drive_for(
    stack: Stack, batch: Sequence[QueryRequest], yardstick: Yardstick, seconds: float
) -> List[Sample]:
    """Whole passes over *batch*, one after another while *seconds* last:
    the measured requests are the same whatever the machine's speed."""
    samples: List[Sample] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples += drive(stack, batch, yardstick)
    return samples


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def malformed(sample: Sample) -> Optional[str]:
    """Why this answer is unusable, or ``None``: it must exist, be
    complete, hold at most k results, and be sorted."""
    if sample.error is not None:
        return sample.error
    response = sample.response
    if not response.complete:
        return f"partial: {response.shards_answered}/{response.shards_total} shards"
    keys = [(r.distance, r.trajectory_id) for r in response.results]
    if len(keys) > sample.request.k:
        return f"{len(keys)} results for k={sample.request.k}"
    if keys != sorted(keys):
        return "results not sorted"
    return None


class Oracle(NamedTuple):
    """The reference answers to the head of a request list."""

    rankings: list
    build_s: float
    candidates: int


def ask_oracle(db, batch: Sequence[QueryRequest]) -> Oracle:
    """Answer *batch* with a freshly built single-index scalar engine —
    the repo's correctness reference."""
    t0 = time.perf_counter()
    index = GATIndex.build(db, GAT)
    build_s = time.perf_counter() - t0
    engine = GATSearchEngine(index, kernel="scalar")
    rankings = []
    candidates = 0
    for request in batch:
        ctx = engine.execute(request.query, request.k, order_sensitive=request.order_sensitive)
        candidates += ctx.stats.candidates_retrieved
        rankings.append(ctx.ranked)
    return Oracle(rankings, build_s, candidates)


def wrong(sample: Sample, want) -> Optional[str]:
    """Why this answer is not the oracle's, or ``None``."""
    got = sample.response.results
    if [r.trajectory_id for r in got] != [r.trajectory_id for r in want]:
        return "ranking differs from the scalar oracle"
    if not all(
        math.isclose(a.distance, b.distance, rel_tol=DISTANCE_REL_TOL) for a, b in zip(got, want)
    ):
        return "distances differ from the scalar oracle"
    return None


def failures(samples: List[Sample], oracle: Oracle) -> Dict[int, str]:
    """The failed requests of one pass, by position, with the reason."""
    failed: Dict[int, str] = {}
    for i, sample in enumerate(samples):
        why = malformed(sample)
        if why is None and i < len(oracle.rankings):
            why = wrong(sample, oracle.rankings[i])
        if why is not None:
            failed[i] = why
    return failed


# ----------------------------------------------------------------------
# End-to-end run (--trace 0)
# ----------------------------------------------------------------------
def percentile_ms(latencies: List[float], q: float) -> float:
    return 1000.0 * nearest_rank(sorted(latencies), q)


def timing_metrics(setups: List[List[Interval]], done: List[Sample], seconds_of) -> Dict[str, float]:
    """The timed end-to-end metrics; ``seconds_of(wall, cpu, reading)``
    says how an interval counts (at the yardstick's speed, or as measured)."""
    latencies = [seconds_of(s.latency_s, s.cpu_s, s.reading_s) for s in done]
    per_type = {
        order_sensitive: [
            latency for latency, s in zip(latencies, done)
            if s.request.order_sensitive == order_sensitive
        ]
        for order_sensitive in (False, True)
    }
    cpu = sum(seconds_of(s.cpu_s, s.cpu_s, s.reading_s) for s in done)
    return {
        "setup_s": statistics.median(
            sum(seconds_of(*part) for part in parts) for parts in setups
        ),
        "qps": len(done) / sum(latencies),
        "latency_p50_ms": percentile_ms(latencies, 0.50),
        "latency_p90_ms": percentile_ms(latencies, 0.90),
        "atsq_p50_ms": percentile_ms(per_type[False], 0.50),
        "oatsq_p50_ms": percentile_ms(per_type[True], 0.50),
        "cpu_ms_per_query": 1000.0 * cpu / len(done),
    }


def end_to_end(db, workload: Workload, seed: int, seconds: float, yardstick: Yardstick):
    setups: List[List[Interval]] = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        stack, parts = set_up(db, workload, yardstick)
        setups.append(parts)
    batch = take(requests(db, workload, seed), workload.queries)
    try:
        drive(stack, lead_in_requests(db, workload), yardstick)
        samples = drive_for(stack, batch, yardstick, seconds)
    finally:
        stack.close()
    # Read before the oracle builds a second index in this interpreter.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = ask_oracle(db, batch[:ORACLE_QUERIES])
    failed: Dict[str, str] = {}
    for start in range(0, len(samples), len(batch)):  # pass by pass
        label = f" (pass {start // len(batch)})" if start else ""
        for i, why in failures(samples[start:start + len(batch)], oracle).items():
            failed[f"{i}{label}"] = why

    done = [s for s in samples if s.error is None]
    if not done:
        sys.exit(f"{workload.name}: no request was answered; first: {samples[0].error}")
    metrics = timing_metrics(setups, done, yardstick.at_nominal)
    metrics["peak_rss_mb"] = peak_rss_mb
    measured = timing_metrics(setups, done, as_measured)
    n_atsq = sum(1 for s in done if not s.request.order_sensitive)
    counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"n={len(done)}",
        "latency_p90_ms": f"n={len(done)}",
        "atsq_p50_ms": f"n={n_atsq}",
        "oatsq_p50_ms": f"n={len(done) - n_atsq}",
    }
    notes = {
        name: ", ".join(filter(None, [counts.get(name), f"as measured {value:.6g}"]))
        for name, value in measured.items()
    }
    notes["peak_rss_mb"] = "after the timed passes, before the oracle is built"
    return len(samples), failed, metrics, notes


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def tree_errors(groups: Dict[object, List[spanlib.Span]]) -> Dict[int, str]:
    """Every query's spans must form one tree: a single root, and every
    parent link resolving inside the same query — across threads too."""
    errors: Dict[int, str] = {}
    for qid, group in groups.items():
        ids = {span.sid for span in group}
        roots = [span for span in group if span.parent is None]
        orphans = [span for span in group if span.parent is not None and span.parent not in ids]
        if len(roots) != 1 or orphans:
            errors[qid] = f"span tree broken: {len(roots)} roots, {len(orphans)} orphans"
    return errors


def coverage_errors(samples, groups, self_time) -> Dict[int, str]:
    """Single-index workloads run each query on one thread, so its layer
    self-times must add up to its measured wall."""
    errors: Dict[int, str] = {}
    for qid, group in groups.items():
        covered = sum(self_time[span.sid] for span in group)
        wall = samples[qid].latency_s
        if abs(covered - wall) > COVERAGE_TOLERANCE * wall:
            errors[qid] = f"layer self-times cover {covered / wall:.3f} of the query's wall"
    return errors


def fanout_metrics(groups: Dict[object, List[spanlib.Span]], speed: List[float]) -> Dict[str, float]:
    """Per-query means of the fan-out timings, in ms at the yardstick's
    speed (``speed[qid]`` is the query's factor).  The merged answer waits
    for the slowest shard task, so ``critical`` bounds latency while
    ``task`` (the sum) bounds CPU."""
    totals: Dict[str, float] = defaultdict(float)
    for qid, group in groups.items():
        tasks = [span.duration for span in group if span.name == "core.engine"]
        search = next(span for span in group if span.name == "shard.search")
        submit = next(span for span in group if span.name == "serving.submit")
        critical = max(tasks)
        for name, seconds in (
            ("shard.task_ms", sum(tasks)),
            ("shard.critical_ms", critical),
            ("shard.straggler_wait_ms", critical - sum(tasks) / len(tasks)),
            ("shard.tax_ms", search.duration - critical),
            ("serving.overhead_ms", submit.duration - search.duration),
        ):
            totals[name] += seconds * speed[qid]
    return {name: 1000.0 * total / len(groups) for name, total in totals.items()}


def traced(db, workload: Workload, seed: int, yardstick: Yardstick, out_dir: Path):
    replay = take(requests(db, workload, seed), workload.trace_queries)
    stack, _parts = set_up(db, workload, yardstick)
    try:
        # The lead-in pass leaves the caches as a pass over this list leaves
        # them, so the two measured passes start alike and do the same work.
        drive(stack, replay, yardstick)
        plain = drive(stack, replay, yardstick)
        stack.reset_stats()
        recorder = spanlib.SpanRecorder()
        with spanlib.installed(recorder):
            samples = drive(stack, replay, yardstick, recorder)
        service_stats = stack.service.stats()
        frontend_stats = stack.frontend.stats() if stack.frontend is not None else None
        memory_bytes = stack.index.memory_cost_bytes()
    finally:
        stack.close()

    all_spans = recorder.spans()
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    groups = spanlib.by_query(all_spans)
    self_time = spanlib.self_times(all_spans)

    oracle = ask_oracle(db, replay[:ORACLE_QUERIES])
    failed = failures(samples, oracle)
    changed = {
        i: "traced answer differs from the untraced one"
        for i, (a, b) in enumerate(zip(plain, samples))
        if a.error is None and b.error is None and a.response.results != b.response.results
    }
    uncovered = {} if workload.shards else coverage_errors(samples, groups, self_time)
    for errors in (changed, tree_errors(groups), uncovered):
        for i, why in errors.items():
            failed.setdefault(i, why)

    # Layer times are stated at the yardstick's speed like the end-to-end
    # ones; the simulated disk's wait is sleep, which contention does not
    # stretch.
    n_queries = len(samples)
    speed = [yardstick.NOMINAL_S / s.reading_s for s in samples]
    layer_s: Dict[str, float] = defaultdict(float)
    for qid, group in groups.items():
        for span in group:
            asleep = workload.cold and span.name == "storage.disk"
            layer_s[span.name] += self_time[span.sid] * (1.0 if asleep else speed[qid])
    stats = [s.response.stats for s in samples if s.response is not None]

    def layer_ms(name: str) -> float:
        return 1000.0 * layer_s[name] / n_queries

    def per_query(field: str) -> float:
        return sum(getattr(st, field) for st in stats) / len(stats)

    retrieved = sum(st.candidates_retrieved for st in stats)
    metrics = {
        "core.retrieve_ms": layer_ms("core.retrieve"),
        "core.assemble_ms": layer_ms("core.assemble"),
        "core.score_ms": layer_ms("core.score"),
        "core.score_single_ms": layer_ms("core.score_single"),
        "core.validate_ms": layer_ms("core.validate"),
        "core.lower_bound_ms": layer_ms("core.lower_bound"),
        "core.engine_other_ms": layer_ms("core.engine"),
        "core.cells_popped_per_query": per_query("cells_popped"),
        "core.candidates_per_query": per_query("candidates_retrieved"),
        "core.rounds_per_query": per_query("rounds"),
        "core.validated_per_query": per_query("validated"),
        "core.tas_pruned_per_query": per_query("tas_pruned"),
        "core.apl_pruned_per_query": per_query("apl_pruned"),
        "core.mib_pruned_per_query": per_query("mib_pruned"),
        "core.filter_pass_ratio": sum(st.validated for st in stats) / retrieved,
        "index.apl_fetch_ms": layer_ms("index.apl_fetch"),
        "index.apl_cache_hit_rate": service_stats.apl_cache_hit_rate,
        "index.hicl_cache_hit_rate": service_stats.hicl_cache_hit_rate,
        "index.build_s": oracle.build_s if workload.shards else stack.build_s,
        "index.memory_mb": memory_bytes / 1e6,
        "storage.disk_reads_per_query": per_query("disk_reads"),
        "storage.disk_pages_per_query": per_query("disk_pages_read"),
        "storage.disk_wait_ms": layer_ms("storage.disk"),
        "service.overhead_ms": layer_ms("service.search"),
        "shard.build_s": stack.build_s if workload.shards else 0.0,
        "shard.task_ms": 0.0,
        "shard.critical_ms": 0.0,
        "shard.straggler_wait_ms": 0.0,
        "shard.tax_ms": 0.0,
        "shard.work_amplification": sum(
            s.response.stats.candidates_retrieved
            for s in samples[: len(oracle.rankings)]
            if s.response is not None
        )
        / oracle.candidates,
        "shard.task_retries": service_stats.task_retries,
        "shard.task_hedges": service_stats.task_hedges,
        "shard.partial_responses": service_stats.partial_responses,
        "serving.overhead_ms": 0.0,
        "serving.queue_wait_ms": 0.0,
        "serving.refused": 0,
        "bench.yardstick_ratio": statistics.median(yardstick.readings) / yardstick.NOMINAL_S,
        "bench.trace_overhead_ratio": statistics.median(
            yardstick.at_nominal(b.latency_s, b.cpu_s, b.reading_s)
            / yardstick.at_nominal(a.latency_s, a.cpu_s, a.reading_s)
            for a, b in zip(plain, samples)
        ),
    }
    if workload.shards:
        metrics.update(fanout_metrics(groups, speed))
        metrics["serving.queue_wait_ms"] = 1000.0 * frontend_stats.queue_wait_p50_s
        metrics["serving.refused"] = (
            frontend_stats.rejected + frontend_stats.shed + frontend_stats.expired
        )
    notes = {
        name: f"mean over {n_queries} queries, at yardstick speed"
        for name in metrics if name.endswith("_ms")
    }
    notes["bench.trace_overhead_ratio"] = "median traced / untraced latency, query by query"
    notes["shard.work_amplification"] = (
        f"first {len(oracle.rankings)} queries vs the single-index oracle"
    )
    return n_queries, failed, metrics, notes


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="drives query sampling only")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="whole passes over the request list repeat while this lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    yardstick = Yardstick()
    t0 = time.perf_counter()
    db = dataset()
    datagen_s = time.perf_counter() - t0
    if args.trace:
        attempted, failed, metrics, notes = traced(db, workload, args.seed, yardstick, HERE / "out")
        metrics["data.datagen_s"] = datagen_s
        declared = spec["per_layer"]
    else:
        attempted, failed, metrics, notes = end_to_end(
            db, workload, args.seed, args.seconds, yardstick
        )
        declared = spec["end_to_end"]

    label = "I/O-model" if workload.cold else "CPU"
    print(f"# {workload.name} ({label} result): {len(db)} trajectories, seed {args.seed}, "
          f"closed loop, 1 client, {attempted} executions")
    reading = statistics.median(yardstick.readings)
    print(f"# yardstick: median {1000 * reading:.3f} ms over {len(yardstick.readings)} readings, "
          f"{reading / yardstick.NOMINAL_S:.2f}x its nominal {1000 * yardstick.NOMINAL_S:.2f} ms; "
          "times below are at nominal speed")
    for query, why in failed.items():
        print(f"# FAILED query {query}: {why}")
    reported = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        reported[name] = {"value": value, "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_frac {len(failed) / attempted:.6g} ratio  ({len(failed)} of {attempted})")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": reported,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
