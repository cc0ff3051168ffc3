"""Differential test: ``GATSearchEngine.execute`` with the lazy termination
test against the eager round order it replaced (``eager_bound_oracle.py``).

Generated databases and queries (``test_retrieval_differential``'s cases)
run through both on their own freshly built indexes, for ATSQ and OATSQ,
both kernels, both ``use_tight_lower_bound`` settings, and with and without
an external threshold (the sharded fan-out's merged k-th), at the engine's
``m`` (``LB_CELLS``; ``test_lazy_bound`` varies ``m`` under the bound
itself).  Rankings and
every ``SearchStats`` field — rounds, pops, candidates, the pruning
counters, counted reads and pages — must be ``==``.
"""

import itertools
from dataclasses import asdict

from eager_bound_oracle import eager_execute
from hypothesis import example, given, settings, strategies as st
from test_retrieval_differential import _SPREAD, Case, _build_index, _cases

from repro.core.engine import GATSearchEngine
from repro.core.query import Query, QueryPoint

#: (order_sensitive, kernel, use_tight_lower_bound)
CONFIGS = list(itertools.product((False, True), ("block", "scalar"), (True, False)))


def _ranked(ctx):
    return [(r.trajectory_id, r.distance) for r in ctx.ranked]


def _check(case: Case, k: int, external: float) -> None:
    production = _build_index(case, case.trajectories)
    oracle = _build_index(case, case.trajectories)
    queries = [
        Query([QueryPoint(x, y, frozenset(acts)) for x, y, acts in raw]) for raw in case.queries
    ]
    for order_sensitive, kernel, tight in CONFIGS:
        knobs = dict(
            retrieval_batch=case.batch,
            kernel=kernel,
            use_tight_lower_bound=tight,
        )
        engine = GATSearchEngine(production, **knobs)
        oracle_engine = GATSearchEngine(oracle, **knobs)
        for query, threshold in itertools.product(queries, (None, lambda: external)):
            got = engine.execute(query, k, order_sensitive, external_threshold=threshold)
            want = eager_execute(oracle_engine, query, k, order_sensitive, threshold)
            label = (order_sensitive, kernel, tight, threshold is not None)
            assert _ranked(got) == _ranked(want), label
            assert asdict(got.stats) == asdict(want.stats), label


_TWO_POINTS = [(10.0, 10.0, (0, 1)), (90.0, 70.0, (2,))]


@given(_cases(), st.integers(1, 6), st.integers(0, 80).map(float))
@settings(max_examples=40, deadline=None)
# The round that scores the k-th result harvests the whole index: the test
# must see that round's threshold (stop now), not the round-start ``inf``.
@example(Case([[(0.0, 0.0, (0,))]], depth=1, memory_levels=0, queries=[[(0.0, 0.0, (0,))]], batch=1), 1, 5.0)
# Many rounds with finite thresholds: a spread database, batch 1.
@example(Case(_SPREAD, depth=5, memory_levels=3, queries=[_TWO_POINTS], batch=1), 3, 40.0)
@example(Case(_SPREAD, depth=4, memory_levels=2, queries=[[(50.0, 50.0, (0,))]], batch=2), 5, 10.0)
# An external threshold below every distance: the shard stops on it.
@example(Case(_SPREAD, depth=4, memory_levels=4, queries=[_TWO_POINTS], batch=2), 2, 0.0)
def test_lazy_engine_equals_eager_rounds(case, k, external):
    _check(case, k, external)
