"""Figure 6 — effect of the query diameter δ(Q) (panels a-d).

Paper sweeps δ(Q) over {5, 10, 20, 30, 50} km on a full metro area.  Our
scaled city is sqrt(scale) as wide, so the sweep uses the same *fractions*
of the city diagonal as the paper's values are of ~100 km.

Paper shape: IL flat (no geometry in retrieval); RT/IRT/GAT all slow down
as the query spreads (each query point's neighbourhood is disjoint, so
more cells/nodes get expanded).
"""

import math

import pytest

from repro.bench.experiments import DEFAULT_K, effect_of_diameter
from repro.bench.reporting import format_series_table

PAPER_DIAMETERS_KM = (5.0, 10.0, 20.0, 30.0, 50.0)
PAPER_CITY_DIAGONAL_KM = 100.0


def _scaled_diameters(db):
    box = db.bounding_box
    diagonal = math.hypot(box.width, box.height)
    return tuple(d / PAPER_CITY_DIAGONAL_KM * diagonal for d in PAPER_DIAMETERS_KM)


@pytest.mark.benchmark(group="fig6-full-sweep")
def test_figure6_sweep(benchmark, la_harness, ny_harness, la_db, ny_db, scale):
    tables = []

    def run():
        tables.clear()
        _collect(tables, la_harness, ny_harness, la_db, ny_db, scale)

    benchmark.pedantic(run, rounds=1, iterations=1)
    for table in tables:
        print(table)


def _collect(tables, la_harness, ny_harness, la_db, ny_db, scale):
    for label, db, harness in (("LA", la_db, la_harness), ("NY", ny_db, ny_harness)):
        diameters = _scaled_diameters(db)
        for order_sensitive, qtype in ((False, "ATSQ"), (True, "OATSQ")):
            results = effect_of_diameter(
                db,
                scale,
                order_sensitive=order_sensitive,
                diameters=diameters,
                harness=harness,
            )
            # Label rows with the paper-equivalent diameters for readability.
            for point, paper_d in zip(results, PAPER_DIAMETERS_KM):
                point.x_value = f"{float(point.x_value):.1f} (~{paper_d:g}km paper)"
            tables.append(
                format_series_table(
                    f"Figure 6 — {qtype} on {label}, varying delta(Q)", results
                )
            )


@pytest.mark.parametrize("frac_idx", [0, 2, 4])
@pytest.mark.benchmark(group="fig6-gat-atsq-la")
def test_gat_atsq_by_diameter(benchmark, la_harness, la_db, scale, frac_idx):
    from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig

    diameter = _scaled_diameters(la_db)[frac_idx]
    gen = QueryWorkloadGenerator(la_db, WorkloadConfig(seed=scale.seed))
    queries = gen.queries_with_diameter(scale.n_queries, diameter)
    gat = la_harness.searchers["GAT"]

    def run():
        for q in queries:
            gat.atsq(q, DEFAULT_K)

    benchmark.pedantic(run, rounds=2, iterations=1)
