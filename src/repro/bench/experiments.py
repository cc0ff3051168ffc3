"""Experiment definitions: one function per paper figure.

Each function builds (or receives) a dataset, generates the figure's
workload, sweeps its parameter, and returns `SweepResult`s ready for
:func:`repro.bench.reporting.format_series_table`.  Scales are configurable
module-wide through :class:`ExperimentScale` so the same code can run a
quick smoke pass (pytest-benchmark) or a longer full-scale pass.

Paper defaults (Table V): k = 9, |Q| = 4, |q.Φ| = 3, δ(Q) = 10 km.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentHarness, SweepResult
from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.data.presets import dataset_from_preset
from repro.index.gat.index import GATConfig
from repro.model.database import TrajectoryDatabase

#: Paper defaults, Table V.
DEFAULT_K = 9
DEFAULT_QUERY_POINTS = 4
DEFAULT_ACTIVITIES = 3
DEFAULT_DIAMETER_KM = 10.0

#: Paper sweep values.
K_VALUES = (5, 10, 15, 20, 25)
QUERY_POINT_VALUES = (2, 3, 4, 5, 6)
ACTIVITY_VALUES = (1, 2, 3, 4, 5)
DIAMETER_VALUES_KM = (5.0, 10.0, 20.0, 30.0, 50.0)
GRANULARITY_DEPTHS = (5, 6, 7, 8)  # 32, 64, 128, 256 partitions per side


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How big an experiment run is.

    ``dataset_scale`` is the fraction of the paper's dataset sizes;
    ``n_queries`` is the batch per sweep point (the paper uses 50).
    """

    dataset_scale: float = 0.02
    n_queries: int = 5
    seed: int = 77


def build_dataset(name: str, scale: ExperimentScale) -> TrajectoryDatabase:
    """The la/ny dataset at this experiment scale."""
    return dataset_from_preset(name, scale.dataset_scale)


def _generator(db: TrajectoryDatabase, scale: ExperimentScale) -> QueryWorkloadGenerator:
    return QueryWorkloadGenerator(
        db,
        WorkloadConfig(
            n_query_points=DEFAULT_QUERY_POINTS,
            n_activities_per_point=DEFAULT_ACTIVITIES,
            seed=scale.seed,
        ),
    )


# ----------------------------------------------------------------------
# Figure 3 — effect of k
# ----------------------------------------------------------------------
def effect_of_k(
    db: TrajectoryDatabase,
    scale: ExperimentScale,
    order_sensitive: bool = False,
    k_values: Sequence[int] = K_VALUES,
    harness: Optional[ExperimentHarness] = None,
) -> List[SweepResult]:
    harness = harness or ExperimentHarness(db)
    gen = _generator(db, scale)
    queries = gen.queries(scale.n_queries)
    return harness.sweep(
        "k",
        list(k_values),
        make_queries=lambda _k: queries,  # same batch, varying k (as in the paper)
        k_of=lambda k: int(k),
        order_sensitive=order_sensitive,
    )


# ----------------------------------------------------------------------
# Figure 4 — effect of |Q|
# ----------------------------------------------------------------------
def effect_of_query_points(
    db: TrajectoryDatabase,
    scale: ExperimentScale,
    order_sensitive: bool = False,
    nq_values: Sequence[int] = QUERY_POINT_VALUES,
    harness: Optional[ExperimentHarness] = None,
) -> List[SweepResult]:
    harness = harness or ExperimentHarness(db)
    gen = _generator(db, scale)
    return harness.sweep(
        "|Q|",
        list(nq_values),
        make_queries=lambda nq: gen.queries(scale.n_queries, n_query_points=int(nq)),
        k_of=lambda _nq: DEFAULT_K,
        order_sensitive=order_sensitive,
    )


# ----------------------------------------------------------------------
# Figure 5 — effect of |q.Φ|
# ----------------------------------------------------------------------
def effect_of_activities(
    db: TrajectoryDatabase,
    scale: ExperimentScale,
    order_sensitive: bool = False,
    na_values: Sequence[int] = ACTIVITY_VALUES,
    harness: Optional[ExperimentHarness] = None,
) -> List[SweepResult]:
    harness = harness or ExperimentHarness(db)
    gen = _generator(db, scale)
    return harness.sweep(
        "|q.phi|",
        list(na_values),
        make_queries=lambda na: gen.queries(
            scale.n_queries, n_activities_per_point=int(na)
        ),
        k_of=lambda _na: DEFAULT_K,
        order_sensitive=order_sensitive,
    )


# ----------------------------------------------------------------------
# Figure 6 — effect of δ(Q)
# ----------------------------------------------------------------------
def effect_of_diameter(
    db: TrajectoryDatabase,
    scale: ExperimentScale,
    order_sensitive: bool = False,
    diameters: Sequence[float] = DIAMETER_VALUES_KM,
    harness: Optional[ExperimentHarness] = None,
) -> List[SweepResult]:
    harness = harness or ExperimentHarness(db)
    gen = _generator(db, scale)
    return harness.sweep(
        "delta(Q) km",
        list(diameters),
        make_queries=lambda d: gen.queries_with_diameter(scale.n_queries, float(d)),
        k_of=lambda _d: DEFAULT_K,
        order_sensitive=order_sensitive,
    )


# ----------------------------------------------------------------------
# Figure 7 — scalability in |D|
# ----------------------------------------------------------------------
def effect_of_dataset_size(
    full_db: TrajectoryDatabase,
    scale: ExperimentScale,
    sizes: Sequence[int],
    order_sensitive: bool = False,
) -> List[SweepResult]:
    """Sample the NY dataset down to each size (the paper samples 10K-50K;
    our sizes stand in proportionally) and time the defaults on each."""
    import random

    results: List[SweepResult] = []
    rng = random.Random(scale.seed)
    for size in sizes:
        db = full_db.sample(size, rng)
        harness = ExperimentHarness(db)
        gen = _generator(db, scale)
        queries = gen.queries(scale.n_queries)
        timings = harness.run_batch(queries, DEFAULT_K, order_sensitive)
        results.append(SweepResult(x_label="|D|", x_value=size, timings=timings))
    return results


# ----------------------------------------------------------------------
# Figure 8 — partition granularity (GAT only, time + memory)
# ----------------------------------------------------------------------
def effect_of_granularity(
    db: TrajectoryDatabase,
    scale: ExperimentScale,
    depths: Sequence[int] = GRANULARITY_DEPTHS,
) -> List[Dict[str, object]]:
    """For each grid depth, build GAT, time ATSQ and OATSQ batches and
    record the in-memory index size — the three series of Figure 8."""
    import time as _time

    gen = _generator(db, scale)
    queries = gen.queries(scale.n_queries)
    rows: List[Dict[str, object]] = []
    for depth in depths:
        config = GATConfig(depth=depth, memory_levels=min(6, depth))
        harness = ExperimentHarness(db, gat_config=config, methods=("GAT",))
        engine = harness.searchers["GAT"]

        t0 = _time.perf_counter()
        for q in queries:
            engine.atsq(q, DEFAULT_K)
        atsq_avg = (_time.perf_counter() - t0) / len(queries)

        t0 = _time.perf_counter()
        for q in queries:
            engine.oatsq(q, DEFAULT_K)
        oatsq_avg = (_time.perf_counter() - t0) / len(queries)

        rows.append(
            {
                "partitions": 1 << depth,
                "depth": depth,
                "atsq_avg_s": atsq_avg,
                "oatsq_avg_s": oatsq_avg,
                "memory_bytes": harness.gat_index.memory_cost_bytes(),
            }
        )
    return rows
