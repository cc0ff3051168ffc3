"""Ablations of the GAT design choices.

Not a paper figure — this quantifies the individual contributions the
paper argues for qualitatively:

* **TAS sketch** (Section V-C): candidates rejected in memory before any
  disk access.  Ablation: ``use_tas=False`` fetches the APL for every
  retrieved candidate.
* **Tight lower bound** (Section V-B / Algorithm 2): the virtual-trajectory
  bound vs the queue-top bound the paper rejects as "too loose".
* **λ batch size** (Section V-A): candidates retrieved per round.
* **Dmom compression + Dmm gating** (Section VI-C optimisations).
"""

import time

import pytest

from repro.bench.experiments import DEFAULT_K
from repro.bench.reporting import _render
from repro.core.engine import GATSearchEngine
from repro.core.pipeline import APLFilter, MIBFilter, TASFilter
from repro.index.gat.index import GATIndex

from conftest import bench_gat_config


@pytest.fixture(scope="module")
def gat_index(la_db):
    return GATIndex.build(la_db, bench_gat_config())


def _run_all(engine, queries, order_sensitive=False):
    # Cold caches: the shared HICL LRU (and the engine APL cache, which
    # callers disable) would otherwise let the first variant absorb all
    # the cold disk reads and warm the cache for every later one, making
    # the per-variant I/O column order-dependent.
    engine.index.hicl.clear_cache()
    t0 = time.perf_counter()
    retrieved = 0
    disk_reads = 0
    for q in queries:
        stats = engine.execute(q, DEFAULT_K, order_sensitive=order_sensitive).stats
        retrieved += stats.candidates_retrieved
        disk_reads += stats.disk_reads
    elapsed = (time.perf_counter() - t0) / len(queries)
    return elapsed, retrieved // len(queries), disk_reads // len(queries)


@pytest.mark.benchmark(group="ablation-tas-lb")
def test_print_tas_and_lower_bound_ablation(benchmark, gat_index, la_queries):
    rows = []

    def run():
        rows.clear()
        _sweep_variants(rows, gat_index, la_queries)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        _render(
            "Ablation — TAS sketch and tight lower bound (ATSQ, LA)",
            ["variant", "s/query", "cands/query", "disk reads/query"],
            rows,
        )
    )


def _sweep_variants(rows, gat_index, la_queries):
    for label, kwargs in (
        ("full GAT (paper design)", {}),
        ("no TAS sketch", {"use_tas": False}),
        ("loose lower bound", {"use_tight_lower_bound": False}),
        ("neither", {"use_tas": False, "use_tight_lower_bound": False}),
    ):
        engine = GATSearchEngine(gat_index, apl_cache_size=0, **kwargs)
        secs, cands, reads = _run_all(engine, la_queries)
        rows.append([label, f"{secs:.4f}", str(cands), str(reads)])


@pytest.mark.benchmark(group="ablation-tas-disk")
def test_tas_reduces_disk_reads(benchmark, gat_index, la_queries):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_tas = GATSearchEngine(gat_index, use_tas=True, apl_cache_size=0)
    without = GATSearchEngine(gat_index, use_tas=False, apl_cache_size=0)
    _s, _c, reads_with = _run_all(with_tas, la_queries)
    _s, _c, reads_without = _run_all(without, la_queries)
    assert reads_with <= reads_without


@pytest.mark.benchmark(group="ablation-filter-chain")
def test_print_filter_chain_ablation(benchmark, gat_index, la_queries):
    """Validation-chain compositions for OATSQ, swept as *filter chains*
    (the pipeline's composition point) rather than engine flags: the
    paper's TAS → APL → MIB order, each filter dropped, and the
    APL-before-TAS reordering that pays a disk read for every retrieved
    candidate.  Results are identical across chains (the DP is the final
    arbiter); only the work profile moves."""
    rows = []

    def run():
        rows.clear()
        _filter_chain_sweep(rows, gat_index, la_queries)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        _render(
            "Ablation — validation filter chains (OATSQ, LA)",
            ["chain", "s/query", "pruned t/a/m", "scored/query", "disk reads/query"],
            rows,
        )
    )


def _filter_chain_sweep(rows, gat_index, la_queries):
    engine = GATSearchEngine(gat_index, apl_cache_size=0)
    tas = TASFilter(gat_index.sketches)
    apl = APLFilter(gat_index.apl, None)
    mib = MIBFilter()
    chains = (
        ("TAS->APL->MIB (paper)", [tas, apl, mib]),
        ("APL->MIB (no TAS)", [apl, mib]),
        ("TAS->APL (no MIB)", [tas, apl]),
        ("APL->TAS->MIB (reordered)", [apl, tas, mib]),
    )
    baseline = None
    for label, chain in chains:
        engine.index.hicl.clear_cache()
        t0 = time.perf_counter()
        pruned = [0, 0, 0]
        scored = 0
        reads = 0
        answers = []
        for q in la_queries:
            ctx = engine.execute(q, DEFAULT_K, order_sensitive=True, filters=list(chain))
            pruned[0] += ctx.stats.tas_pruned
            pruned[1] += ctx.stats.apl_pruned
            pruned[2] += ctx.stats.mib_pruned
            scored += ctx.stats.validated
            reads += ctx.stats.disk_reads
            answers.append([(r.trajectory_id, r.distance) for r in ctx.ranked])
        elapsed = (time.perf_counter() - t0) / len(la_queries)
        if baseline is None:
            baseline = answers
        else:
            assert answers == baseline, f"chain {label!r} changed the top-k"
        n = len(la_queries)
        rows.append(
            [
                label,
                f"{elapsed:.4f}",
                "/".join(str(p // n) for p in pruned),
                str(scored // n),
                str(reads // n),
            ]
        )


@pytest.mark.benchmark(group="ablation-lambda-sweep")
def test_print_lambda_sweep(benchmark, gat_index, la_queries):
    rows = []

    def run():
        rows.clear()
        _lambda_sweep(rows, gat_index, la_queries)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        _render(
            "Ablation — retrieval batch size λ (ATSQ, LA)",
            ["λ", "s/query", "cands/query"],
            rows,
        )
    )


def _lambda_sweep(rows, gat_index, la_queries):
    for lam in (8, 32, 128, 512):
        engine = GATSearchEngine(gat_index, retrieval_batch=lam, apl_cache_size=0)
        secs, cands, _reads = _run_all(engine, la_queries)
        rows.append([str(lam), f"{secs:.4f}", str(cands)])


@pytest.mark.benchmark(group="ablation-dmom")
def test_print_dmom_optimisation_ablation(benchmark, la_db, la_queries):
    """Dmom with/without trajectory compression, on the scored candidates
    of a real query batch."""
    from repro.core.evaluator import MatchEvaluator
    from repro.core.match import INFINITY
    from repro.core.order_match import minimum_order_match_distance
    from repro.index.inverted import InvertedIndex

    ev = MatchEvaluator()
    inv = InvertedIndex.build(la_db)
    rows = []

    def run():
        rows.clear()
        _dmom_sweep(rows, la_db, la_queries, ev, inv)

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        _render(
            "Ablation — Dmom trajectory compression",
            ["variant", "total s", "candidates scored"],
            rows,
        )
    )


def _dmom_sweep(rows, la_db, la_queries, ev, inv):
    from repro.core.order_match import minimum_order_match_distance

    for label, compress in (("compressed DP", True), ("full-length DP", False)):
        t0 = time.perf_counter()
        scored = 0
        for q in la_queries:
            candidates = sorted(inv.trajectories_with_all(q.all_activities))[:120]
            for tid in candidates:
                minimum_order_match_distance(
                    q, la_db.get(tid), ev.metric, compress=compress
                )
                scored += 1
        rows.append([label, f"{time.perf_counter() - t0:.2f}", str(scored)])


@pytest.mark.benchmark(group="ablation-lambda")
@pytest.mark.parametrize("lam", [8, 128])
def test_lambda_benchmark(benchmark, gat_index, la_queries, lam):
    engine = GATSearchEngine(gat_index, retrieval_batch=lam, apl_cache_size=0)

    def run():
        engine.index.hicl.clear_cache()  # cold caches for both params
        for q in la_queries:
            engine.atsq(q, DEFAULT_K)

    benchmark.pedantic(run, rounds=2, iterations=1)
