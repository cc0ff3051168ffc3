"""Command-line interface.

Seven subcommands cover the library's end-to-end workflow:

* ``generate`` — synthesise a dataset (preset or custom) to an ``.npz``
  of the database's columns (:mod:`repro.data.loader`);
* ``stats``    — print a dataset's Table IV statistics;
* ``query``    — run one ATSQ/OATSQ against a dataset file, or a whole
  workload batch through the serving stack (``--batch N --workers W``);
* ``trace``    — serve queries with the tracer on and print (or dump as
  JSONL) the per-query span trees;
* ``metrics``  — serve queries and print a Prometheus text-exposition
  snapshot of the serving metrics;
* ``sweep``    — run one of the paper's figure sweeps and print the table;
* ``serve-bench`` — drive a seeded open-loop arrival process (Poisson /
  diurnal / square-wave burst) through the admission-controlled
  :class:`~repro.serving.ServingFrontend` and print the goodput /
  shed / latency report.

Usage examples::

    python -m repro.cli generate --preset la --scale 0.02 -o la.npz
    python -m repro.cli stats la.npz
    python -m repro.cli query la.npz --k 5 --order-sensitive --seed 3
    python -m repro.cli query la.npz --k 5 --batch 50 --workers 8 --task-retries 2
    python -m repro.cli query la.npz --k 5 --batch 50 --shards 4 --executor process
    python -m repro.cli query la.npz --k 5 --batch 50 --shards 4 \
        --replicas 2 --deadline-ms 200 --task-retries 2 --hedge-ms 50
    python -m repro.cli trace la.npz --k 5 --shards 2 --replicas 2 \
        --task-retries 2 -o spans.jsonl
    python -m repro.cli metrics la.npz --k 5 --batch 20 --shards 2
    python -m repro.cli sweep la.npz --figure k
    python -m repro.cli serve-bench la.npz --rate 50 --duration 5 \
        --arrivals square --slo-ms 250 --shards 2
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.bench.experiments import (
    ExperimentScale,
    effect_of_activities,
    effect_of_diameter,
    effect_of_k,
    effect_of_query_points,
)
from repro.bench.reporting import format_series_table, format_stat_table
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import EngineConfig
from repro.core.kernels import KERNELS
from repro.data.generator import CheckInGenerator, GeneratorConfig
from repro.data.loader import load_database, save_database
from repro.data.presets import dataset_from_preset
from repro.index.gat.index import GATConfig
from repro.service import QueryRequest
from repro.serving import (
    ARRIVAL_KINDS,
    ServingConfig,
    ServingFrontend,
    arrival_process,
    run_open_loop,
)
from repro.shard import (
    EXECUTOR_KINDS,
    FaultPolicy,
    ShardedGATIndex,
    ShardedQueryService,
)
from repro.shard.router import STRATEGIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Activity trajectory search (ICDE 2013 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesise a check-in dataset")
    p_gen.add_argument("--preset", choices=["la", "ny"], help="Table IV preset")
    p_gen.add_argument("--scale", type=float, default=0.02, help="preset scale (0,1]")
    p_gen.add_argument("--users", type=int, help="custom: number of users")
    p_gen.add_argument("--venues", type=int, help="custom: number of venues")
    p_gen.add_argument("--vocabulary", type=int, help="custom: vocabulary size")
    p_gen.add_argument("--seed", type=int, help="default: the preset's own, or 7 for custom sizes")
    p_gen.add_argument("-o", "--output", required=True, help="output .npz path (written as given)")

    p_stats = sub.add_parser("stats", help="print Table IV statistics")
    p_stats.add_argument("dataset", help=".npz dataset path")

    p_query = sub.add_parser("query", help="run one ATSQ/OATSQ")
    _add_query_args(p_query)

    p_trace = sub.add_parser(
        "trace",
        help="run traced queries and dump the per-query span trees",
    )
    _add_query_args(p_trace)
    p_trace.add_argument(
        "-o", "--output", help="also write the spans as JSONL to this path"
    )
    p_trace.add_argument(
        "--max-spans",
        type=int,
        default=10_000,
        help="tracer retention bound (oldest finished spans evicted)",
    )

    p_metrics = sub.add_parser(
        "metrics",
        help="run queries and print a Prometheus text-exposition snapshot",
    )
    _add_query_args(p_metrics)

    p_sweep = sub.add_parser("sweep", help="run a paper figure sweep")
    p_sweep.add_argument("dataset", help=".npz dataset path")
    p_sweep.add_argument(
        "--figure",
        choices=["k", "qpoints", "activities", "diameter"],
        default="k",
        help="which parameter to sweep (Figures 3-6)",
    )
    p_sweep.add_argument("--queries", type=int, default=3, help="queries per point")
    p_sweep.add_argument("--order-sensitive", action="store_true")
    p_sweep.add_argument("--seed", type=int, default=77)

    p_serve = sub.add_parser(
        "serve-bench",
        help="drive an open-loop arrival process through the admission-"
        "controlled serving front-end",
    )
    _add_query_args(p_serve)
    p_serve.add_argument(
        "--rate", type=float, default=50.0, help="mean offered load (QPS)"
    )
    p_serve.add_argument(
        "--duration", type=float, default=5.0, help="offered window (seconds)"
    )
    p_serve.add_argument(
        "--arrivals",
        choices=list(ARRIVAL_KINDS),
        default="poisson",
        help="arrival process shape (all seeded and deterministic)",
    )
    p_serve.add_argument(
        "--period",
        type=float,
        default=4.0,
        help="diurnal/square-wave period (seconds)",
    )
    p_serve.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="latency SLO: goodput counts requests answered within this",
    )
    p_serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="bounded admission queue; arrivals beyond it are rejected",
    )
    p_serve.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="requests concurrently in the backend (the permit pool)",
    )
    p_serve.add_argument(
        "--no-shed",
        action="store_true",
        help="disable SLO-aware shedding (the collapse-prone baseline; "
        "only the bounded queue protects the service)",
    )
    p_serve.add_argument(
        "--shed-headroom",
        type=float,
        default=1.0,
        help="shed when estimated wait × headroom exceeds the remaining "
        "budget (>1.0 sheds earlier)",
    )
    p_serve.add_argument(
        "--workload",
        type=int,
        default=32,
        help="distinct workload queries cycled through the arrival stream",
    )
    return parser


def _add_query_args(p_query: argparse.ArgumentParser) -> None:
    """The serving-stack flags shared by ``query``/``trace``/``metrics``/
    ``serve-bench`` (they all build and drive the same stack; each
    validates them with :func:`_check_query_args`)."""
    p_query.add_argument("dataset", help=".npz dataset path")
    p_query.add_argument("--k", type=int, default=9)
    p_query.add_argument("--query-points", type=int, default=4)
    p_query.add_argument("--activities", type=int, default=3)
    p_query.add_argument("--order-sensitive", action="store_true")
    p_query.add_argument("--seed", type=int, default=1)
    p_query.add_argument("--depth", type=int, default=6, help="GAT grid depth")
    p_query.add_argument(
        "--kernel",
        choices=KERNELS,
        default="block",
        help="scoring kernel: block (the default: one tensor per validation "
        "round with early candidate abandonment) or scalar (the seed oracles)",
    )
    p_query.add_argument("--explain", action="store_true", help="show matched points")
    p_query.add_argument(
        "--batch",
        type=int,
        default=0,
        help="serve N workload queries as one batch instead of one",
    )
    p_query.add_argument(
        "--workers",
        type=int,
        default=None,
        help="the fan-out pool's worker budget (default: 4 threads "
        "per shard copy, or one process per shard copy with --executor "
        "process; --executor serial has no pool and refuses it)",
    )
    p_query.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the index over N shards (default 1: the whole "
        "index, served as a one-shard fan-out)",
    )
    p_query.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="thread",
        help="shard fan-out backend; thread is the default because "
        "threads overlap simulated-disk waits, while CPU-bound runs on "
        ">= 2 cores want process (its pools bypass the GIL)",
    )
    p_query.add_argument(
        "--shard-strategy",
        choices=STRATEGIES,
        default="hash",
        help="trajectory partitioning for --shards > 1: hash (id mod n) "
        "or spatial (Morton-ordered centroids — compact shard regions "
        "that pair with the shard-local grids)",
    )
    p_query.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="copies of each shard, round-robin over the healthy ones "
        "(read scaling beyond one device per shard; 1 = unreplicated)",
    )
    p_query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query deadline: shards still pending at the deadline "
        "are dropped and the response degrades to partial coverage",
    )
    p_query.add_argument(
        "--task-retries",
        type=int,
        default=None,
        help="bounded retries per shard task before that shard counts as "
        "failed (default 2 when any fault flag is set)",
    )
    p_query.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        help="hedge a straggling shard task after this many ms (the "
        "latency tracker's tail quantile takes over once warmed up); "
        "most useful with --replicas > 1, where the hedge lands on a "
        "sibling copy",
    )


def _check_generate_args(args: argparse.Namespace) -> bool:
    """Validate the ``generate`` flags before generating; ``False`` means
    exit 2 (the reason is on stderr)."""
    sizes = {"--users": args.users, "--venues": args.venues, "--vocabulary": args.vocabulary}
    bad = [flag for flag, value in sizes.items() if value is not None and value < 1]
    if not 0 < args.scale <= 1:
        problem = "--scale must be in (0, 1]"
    elif bad:
        problem = f"{bad[0]} must be >= 1"
    elif not args.preset and None in sizes.values():
        problem = "either --preset or all of --users/--venues/--vocabulary required"
    else:
        return True
    print(problem, file=sys.stderr)
    return False


def _cmd_generate(args: argparse.Namespace) -> int:
    if not _check_generate_args(args):
        return 2
    if args.preset:
        db = dataset_from_preset(args.preset, args.scale, seed=args.seed)
    else:
        config = GeneratorConfig(
            n_users=args.users,
            n_venues=args.venues,
            vocabulary_size=args.vocabulary,
            seed=7 if args.seed is None else args.seed,
        )
        db = CheckInGenerator(config).generate(name="custom")
    save_database(db, args.output)
    stats = db.statistics()
    print(f"wrote {args.output}: {stats.n_trajectories} trajectories, "
          f"{stats.n_activities} activity occurrences")
    return 0


class _BadDataset(Exception):
    """A dataset argument that cannot be read or is not a valid image:
    :func:`main` prints it as one stderr line and exits 2, as for a bad
    flag."""


def _load(path: str):
    """The database saved at *path* (:class:`_BadDataset` when it cannot
    be loaded; an error later in the command is not caught)."""
    try:
        return load_database(path)
    except (OSError, ValueError) as exc:
        raise _BadDataset(f"cannot load dataset: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    db = _load(args.dataset)
    print(format_stat_table(f"Table IV — {db.name}", db.statistics().as_rows()))
    return 0


def _stack_label(args: argparse.Namespace) -> str:
    """How output names the serving stack: shards, executor, replicas."""
    label = f"{args.shards} shards/{args.executor}"
    if args.replicas > 1:
        label += f"×{args.replicas} replicas"
    return label


def _fault_policy_from_args(args: argparse.Namespace) -> Optional[FaultPolicy]:
    """Build the stack's :class:`FaultPolicy` from the CLI fault flags;
    ``None`` (all flags unset) keeps the all-or-nothing fan-out."""
    if args.deadline_ms is None and args.task_retries is None and args.hedge_ms is None:
        return None
    return FaultPolicy(
        deadline_s=args.deadline_ms / 1000.0 if args.deadline_ms is not None else None,
        max_retries=args.task_retries if args.task_retries is not None else 2,
        hedge_after_s=args.hedge_ms / 1000.0 if args.hedge_ms is not None else None,
    )


def _build_query_service(db, args: argparse.Namespace, obs=None, result_cache_size=None):
    """The serving stack the ``query``/``trace``/``metrics``/
    ``serve-bench`` subcommands run against: a fleet of ``--shards``
    shards (one is the whole index) and ``--replicas`` copies of each.
    ``result_cache_size`` overrides the service's default (``serve-bench``
    passes 0: a cycled open-loop workload would otherwise be answered
    from the result cache and never load the backend)."""
    cache_kw = {} if result_cache_size is None else {
        "result_cache_size": result_cache_size
    }
    gat_config = GATConfig(depth=args.depth, memory_levels=min(6, args.depth))
    sharded = ShardedGATIndex.build(
        db, n_shards=args.shards, config=gat_config, strategy=args.shard_strategy
    )
    return ShardedQueryService(
        sharded,
        engine_config=EngineConfig(kernel=args.kernel),
        executor=args.executor,
        n_replicas=args.replicas,
        max_workers=args.workers,  # None -> the executor's default
        fault_policy=_fault_policy_from_args(args),
        obs=obs,
        **cache_kw,
    )


def _check_query_args(args: argparse.Namespace) -> bool:
    """Validate the :func:`_add_query_args` flags — every serving
    subcommand calls this before the expensive load + index build and
    exits 2 on ``False`` (the reason is on stderr)."""
    if args.k < 1:
        problem = "--k must be >= 1"
    elif args.query_points < 1:
        problem = "--query-points must be >= 1"
    elif args.activities < 1:
        problem = "--activities must be >= 1"
    elif args.depth < 1:
        problem = "--depth must be >= 1"
    elif args.batch < 0:
        problem = "--batch must be >= 0"
    elif args.workers is not None and args.workers < 1:
        problem = "--workers must be >= 1"
    elif args.workers is not None and args.executor == "serial":
        problem = "--executor serial has no pool: --workers does not apply"
    elif args.shards < 1:
        problem = "--shards must be >= 1"
    elif args.replicas < 1:
        problem = "--replicas must be >= 1"
    elif args.deadline_ms is not None and args.deadline_ms <= 0:
        problem = "--deadline-ms must be > 0"
    elif args.hedge_ms is not None and args.hedge_ms <= 0:
        problem = "--hedge-ms must be > 0"
    elif args.task_retries is not None and args.task_retries < 0:
        problem = "--task-retries must be >= 0"
    else:
        return True
    print(problem, file=sys.stderr)
    return False


def _workload_requests(db, args: argparse.Namespace, n: int) -> List[QueryRequest]:
    """*n* seeded workload queries of ``--query-points`` points and
    ``--activities`` activities each, as requests carrying ``--k``,
    ``--order-sensitive`` and ``--explain`` — what every serving
    subcommand submits."""
    workload = QueryWorkloadGenerator(
        db,
        WorkloadConfig(
            n_query_points=args.query_points,
            n_activities_per_point=args.activities,
            seed=args.seed,
        ),
    )
    return [
        QueryRequest(q, k=args.k, order_sensitive=args.order_sensitive, explain=args.explain)
        for q in workload.queries(n)
    ]


def _cmd_query(args: argparse.Namespace) -> int:
    if not _check_query_args(args):
        return 2
    db = _load(args.dataset)
    service = _build_query_service(db, args)
    if args.batch > 0:
        return _run_query_batch(service, _workload_requests(db, args, args.batch), args)
    request = _workload_requests(db, args, 1)[0]
    print("query:")
    for i, q in enumerate(request.query, start=1):
        names = sorted(db.vocabulary.decode(q.activities))
        print(f"  q{i}: ({q.x:.2f}, {q.y:.2f})  {names}")
    t0 = time.perf_counter()
    response = service.search(request)
    elapsed = time.perf_counter() - t0
    label = "Dmom" if args.order_sensitive else "Dmm"
    print(f"\ntop-{args.k} ({label}, {_stack_label(args)}), {elapsed * 1000:.1f} ms:")
    for rank, r in enumerate(response.results, start=1):
        line = f"  #{rank}: trajectory {r.trajectory_id}  {label}={r.distance:.3f}"
        if args.explain and r.matches is not None:
            line += f"  matches={r.matches}"
        print(line)
    stats = response.stats
    print(f"\nwork: {stats.cells_popped} cells, {stats.candidates_retrieved} candidates, "
          f"{stats.tas_pruned} TAS-pruned, {stats.disk_reads} disk reads")
    service.close()
    return 0


def _run_query_batch(service, requests, args: argparse.Namespace) -> int:
    """Serve the ``--batch`` workload *requests* through the query service."""
    responses = service.search_many(requests)
    label = "Dmom" if args.order_sensitive else "Dmm"
    print(f"batch of {len(responses)} queries ({label}, {_stack_label(args)}):")
    for i, resp in enumerate(responses):
        best = resp.results[0] if resp.results else None
        head = (
            f"trajectory {best.trajectory_id}  {label}={best.distance:.3f}"
            if best
            else "no match"
        )
        if args.explain and best is not None and best.matches is not None:
            head += f"  matches={best.matches}"
        line = (f"  q{i + 1}: top-1 {head}  ({resp.latency_s * 1000:.1f} ms, "
                f"{resp.stats.disk_reads} disk reads)")
        if not resp.complete:
            line += f"  [partial {resp.shards_answered}/{resp.shards_total} shards]"
        print(line)
    stats = service.stats()
    print(f"\nservice: {stats.qps:.1f} QPS, "
          f"p50 {stats.latency_p50_s * 1000:.1f} ms, "
          f"p95 {stats.latency_p95_s * 1000:.1f} ms, "
          f"HICL cache hit rate {stats.hicl_cache_hit_rate:.1%}, "
          f"APL cache hit rate {stats.apl_cache_hit_rate:.1%}")
    if stats.task_retries or stats.task_hedges or stats.partial_responses:
        print(f"faults: {stats.task_retries} retries, "
              f"{stats.task_hedges} hedges, "
              f"{stats.partial_responses} partial responses")
    service.close()
    return 0


def _drive_workload(args: argparse.Namespace, obs) -> int:
    """Shared driver for ``trace``/``metrics``: load the dataset, build
    the serving stack with *obs* attached, and serve ``--batch`` workload
    queries (one when the flag is unset)."""
    db = _load(args.dataset)
    service = _build_query_service(db, args, obs=obs)
    n = args.batch if args.batch > 0 else 1
    requests = _workload_requests(db, args, n)
    try:
        service.search_many(requests)
    finally:
        service.close()
    return n


def _print_span_tree(spans) -> None:
    """Render span dicts as indented per-trace trees, children under
    parents, siblings in start order."""
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s["start_s"], s["span_id"]))

    def render(span, depth):
        end = span.get("end_s")
        dur = f"{(end - span['start_s']) * 1000:.2f} ms" if end else "open"
        attrs = span.get("attrs") or {}
        noted = ", ".join(f"{k}={v}" for k, v in attrs.items())
        events = len(span.get("events") or ())
        tail = f"  [{noted}]" if noted else ""
        if events:
            tail += f"  ({events} events)"
        print(f"{'  ' * depth}{span['name']}  {dur}{tail}")
        for child in by_parent.get(span["span_id"], ()):
            render(child, depth + 1)

    for root in by_parent.get(None, ()):
        render(root, 0)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Observability, validate_spans, write_spans_jsonl

    if not _check_query_args(args):
        return 2
    if args.max_spans < 1:
        print("--max-spans must be >= 1", file=sys.stderr)
        return 2
    obs = Observability.enabled(max_spans=args.max_spans)
    n = _drive_workload(args, obs)
    payloads = [span.to_dict() for span in obs.tracer.drain()]
    validate_spans(payloads)
    if args.output:
        write_spans_jsonl(args.output, payloads)
        print(f"wrote {len(payloads)} spans to {args.output}")
    print(f"{n} quer{'y' if n == 1 else 'ies'}, {len(payloads)} spans:")
    _print_span_tree(payloads)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import Observability

    if not _check_query_args(args):
        return 2
    obs = Observability.disabled()  # registry only, no tracer
    _drive_workload(args, obs)
    sys.stdout.write(obs.prometheus())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.queries < 1:
        print("--queries must be >= 1", file=sys.stderr)
        return 2
    db = _load(args.dataset)
    scale = ExperimentScale(dataset_scale=1.0, n_queries=args.queries, seed=args.seed)
    sweeps = {
        "k": (effect_of_k, "Figure 3 — effect of k"),
        "qpoints": (effect_of_query_points, "Figure 4 — effect of |Q|"),
        "activities": (effect_of_activities, "Figure 5 — effect of |q.phi|"),
        "diameter": (effect_of_diameter, "Figure 6 — effect of delta(Q)"),
    }
    fn, title = sweeps[args.figure]
    results = fn(db, scale, order_sensitive=args.order_sensitive)
    qtype = "OATSQ" if args.order_sensitive else "ATSQ"
    print(format_series_table(f"{title} ({qtype}, {db.name})", results))
    return 0


def _check_serve_args(args: argparse.Namespace) -> bool:
    """Validate the ``serve-bench`` flags beyond :func:`_add_query_args`'
    before the load; ``False`` means exit 2 (the reason is on stderr)."""
    positive = {
        "--rate": args.rate,
        "--duration": args.duration,
        "--period": args.period,
        "--slo-ms": args.slo_ms,
        "--shed-headroom": args.shed_headroom,
    }
    at_least_one = {
        "--workload": args.workload,
        "--queue-capacity": args.queue_capacity,
        "--concurrency": args.concurrency,
    }
    for flag, value in positive.items():
        if not value > 0:
            print(f"{flag} must be > 0", file=sys.stderr)
            return False
    for flag, value in at_least_one.items():
        if value < 1:
            print(f"{flag} must be >= 1", file=sys.stderr)
            return False
    return True


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if not _check_serve_args(args) or not _check_query_args(args):
        return 2
    db = _load(args.dataset)
    # Per-request deadline propagation needs a FaultPolicy to bite;
    # default one in when no fault flag was given.
    if _fault_policy_from_args(args) is None:
        args.task_retries = 2
    service = _build_query_service(db, args, result_cache_size=0)
    requests = _workload_requests(db, args, args.workload)
    slo_s = args.slo_ms / 1000.0
    deadline_s = (
        args.deadline_ms / 1000.0 if args.deadline_ms is not None else slo_s
    )
    config = ServingConfig(
        queue_capacity=args.queue_capacity,
        max_concurrency=args.concurrency,
        default_deadline_s=deadline_s,
        shed=not args.no_shed,
        shed_headroom=args.shed_headroom,
    )
    arrivals = arrival_process(
        args.arrivals, args.rate, seed=args.seed, period_s=args.period
    )
    try:
        with ServingFrontend(service, config) as frontend:
            report = run_open_loop(
                frontend, requests, arrivals, duration_s=args.duration, slo_s=slo_s
            )
            row = report.row()
    finally:
        service.close()
    stats = service.stats()
    print(
        f"open-loop {args.arrivals} @ {args.rate:.1f} QPS for "
        f"{args.duration:.1f}s (SLO {args.slo_ms:.0f} ms, deadline "
        f"{deadline_s * 1e3:.0f} ms, shed={'off' if args.no_shed else 'on'})"
    )
    print(
        f"  offered {row['offered']} ({row['offered_qps']:.1f}/s): "
        f"completed {row['completed']} (within SLO "
        f"{row['completed_within_slo']}), shed {row['shed']}, "
        f"rejected {row['rejected']}, expired {row['expired']}, "
        f"failed {row['failed']}"
    )
    print(
        f"  goodput {row['goodput_qps']:.1f}/s  latency p50 "
        f"{row['latency_p50_ms']:.1f} ms  p95 {row['latency_p95_ms']:.1f} ms  "
        f"p99 {row['latency_p99_ms']:.1f} ms"
    )
    print(
        f"  backend: retries {stats.task_retries}, hedges "
        f"{stats.task_hedges}, partials {stats.partial_responses}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "serve-bench": _cmd_serve_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _BadDataset as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
