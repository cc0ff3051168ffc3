"""Figure 8 — effect of the grid partition granularity (panels a, b).

For each depth d (the paper plots partitions-per-side 32/64/128/256, i.e.
d = 5..8), builds GAT, times ATSQ and OATSQ batches, and reports the
in-memory index size — the three series of the paper's combined plot.

Paper shape: finer grids help query time with diminishing returns beyond
64 x 64 (deeper hierarchies cost more queue operations, offsetting the
tighter lower bound); memory grows with the cell count, modestly beyond
the disk-resident split level.
"""

import pytest

from repro.bench.experiments import effect_of_granularity
from repro.bench.reporting import _render

#: Depths swept.  Our benchmark city is ~1/5 the paper's extent, so these
#: cell sizes bracket the paper's 32x32 .. 256x256 sweep.
DEPTHS = (4, 5, 6, 7)


@pytest.mark.benchmark(group="fig8-full-sweep")
def test_figure8_sweep(benchmark, la_db, ny_db, scale):
    out = {}

    def run():
        out.clear()
        for label, db in (("LA", la_db), ("NY", ny_db)):
            out[label] = effect_of_granularity(db, scale, depths=DEPTHS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    for label, rows in out.items():
        table_rows = [
            [
                f"{r['partitions']}x{r['partitions']}",
                f"{r['atsq_avg_s']:.4f}",
                f"{r['oatsq_avg_s']:.4f}",
                f"{r['memory_bytes'] / 1e6:.2f}",
            ]
            for r in rows
        ]
        print(
            _render(
                f"Figure 8 — partition granularity on {label}",
                ["partitions", "ATSQ (s/query)", "OATSQ (s/query)", "memory (MB)"],
                table_rows,
            )
        )
        memories = [r["memory_bytes"] for r in rows]
        assert memories == sorted(memories)  # memory grows with granularity


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.benchmark(group="fig8-gat-build")
def test_gat_build_at_depth(benchmark, la_db, depth):
    from repro.index.gat.index import GATConfig, GATIndex

    config = GATConfig(depth=depth, memory_levels=min(6, depth))
    benchmark.pedantic(lambda: GATIndex.build(la_db, config), rounds=2, iterations=1)
