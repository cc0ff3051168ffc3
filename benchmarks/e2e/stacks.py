"""The benchmark's fixed inputs, its four workloads, and the serving stack
each one drives — assembled from the public constructors only.

Everything here is the same on every commit: the dataset preset and
scale, the grid, the engine configuration, and the workload shapes.
``--seed`` moves nothing but which queries are drawn.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass
from typing import Iterator, List

from repro.bench.workloads import QueryWorkloadGenerator, WorkloadConfig
from repro.core.engine import EngineConfig, GATSearchEngine
from repro.data.presets import dataset_from_preset
from repro.index.gat.index import GATConfig, GATIndex
from repro.service.service import QueryRequest, QueryResponse, QueryService
from repro.serving import ServingConfig, ServingFrontend
from repro.shard import FaultPolicy, ShardedGATIndex, ShardedQueryService
from repro.storage.disk import SimulatedDisk

#: LA preset at 4 % of the paper's size (1 262 trajectories) on a depth-6
#: grid — the inputs of ROADMAP's "Where the time goes" table, which this
#: benchmark makes reproducible.  Sized, not guessed: synthesis and
#: per-query cost grow with scale, the driver allows ~37 s per run, and a
#: run must measure enough distinct requests for its percentiles to hold
#: still from seed to seed (see README, "Fixed inputs").
SCALE = 0.04
#: Depth 6 gives ~250 m leaf cells on this 16 km district, close to the
#: paper's (d=8 over the full metro area).  Levels 1-5 stay in memory and
#: the leaf level of the HICL is on disk, so HICL lookups as well as APL
#: fetches are counted reads.
GAT = GATConfig(depth=6, memory_levels=5)
#: The engine's APL LRU holds 800 of the 1 262 trajectories — the 0.65
#: cache-to-data ratio of the default 2 048 at scale 0.1 — so the working
#: set exceeds the program's own cache on the warm single-index workloads
#: (a shard's ~630 trajectories fit).
APL_CACHE = 800
#: Warm-up requests per set-up; drawn from a fixed seed so set-up does the
#: same work whatever ``--seed`` is.
WARMUP_QUERIES = 8
WARMUP_SEED = 7
#: The unmeasured lead-in before the timed passes is this share of the
#: workload's list length, from the same fixed seed: lazily built
#: per-trajectory structures fill in, so nothing measured is a cold start.
LEAD_IN_SHARE = 0.125


@dataclass(frozen=True)
class Workload:
    name: str
    n_points: int
    n_activities: int
    k: int
    #: Length of the request list the end-to-end run measures: what the
    #: driver's time allows (README), longer where the workload's medians
    #: need it to hold still.  A pass takes 7-15 s here, so a 6 s run is
    #: exactly one pass.
    queries: int
    #: Requests at the head of the list that the traced run replays.
    trace_queries: int
    #: Per-read latency of the simulated disk; > 0 makes this an
    #: I/O-model workload (APL cache off, HICL cache cleared per query).
    read_latency_s: float = 0.0
    #: 0 = single-index ``QueryService``; n = ``ServingFrontend`` over an
    #: n-shard supervised thread fan-out.
    shards: int = 0

    @property
    def cold(self) -> bool:
        return self.read_latency_s > 0.0


#: Why each was chosen is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cpu_default",
            n_points=4,
            n_activities=3,
            k=9,
            queries=200,
            trace_queries=64,
        ),
        Workload(
            "cpu_heavy",
            n_points=6,
            n_activities=4,
            k=20,
            queries=100,
            trace_queries=48,
        ),
        Workload(
            "io_cold",
            n_points=4,
            n_activities=3,
            k=9,
            queries=120,
            trace_queries=48,
            read_latency_s=0.0001,
        ),
        Workload(
            "stack_closed",
            n_points=1,
            n_activities=1,
            k=3,
            queries=1300,
            trace_queries=128,
            shards=2,
        ),
    )
}


def dataset():
    """The benchmark's database (preset seed — never the workload seed)."""
    return dataset_from_preset("la", scale=SCALE)


def derived_seed(seed: int, label: str) -> int:
    """A stable per-workload generator seed: adding a workload never
    shifts another workload's queries."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def requests(db, workload: Workload, seed: int) -> Iterator[QueryRequest]:
    """The workload's endless seeded request stream: even requests ATSQ,
    odd OATSQ."""
    generator = QueryWorkloadGenerator(
        db,
        WorkloadConfig(
            n_query_points=workload.n_points,
            n_activities_per_point=workload.n_activities,
            seed=derived_seed(seed, workload.name),
        ),
    )
    i = 0
    while True:
        yield QueryRequest(generator.query(), k=workload.k, order_sensitive=i % 2 == 1)
        i += 1


def take(stream: Iterator[QueryRequest], n: int) -> List[QueryRequest]:
    return [next(stream) for _ in range(n)]


def warm_up_requests(db, workload: Workload) -> List[QueryRequest]:
    return take(requests(db, workload, WARMUP_SEED), WARMUP_QUERIES)


def lead_in_requests(db, workload: Workload) -> List[QueryRequest]:
    return take(requests(db, workload, WARMUP_SEED), round(LEAD_IN_SHARE * workload.queries))


class Stack:
    """One workload's serving stack, result caches off everywhere.

    ``search`` answers one request through the whole stack; ``build_s`` is
    the index (or shard fleet) build alone.  Refusals and failures
    propagate as exceptions — the driver counts them.
    """

    def __init__(self, db, workload: Workload) -> None:
        self.workload = workload
        engine_config = EngineConfig(apl_cache_size=0 if workload.cold else APL_CACHE)
        t0 = time.perf_counter()
        if workload.shards:
            self.index = ShardedGATIndex.build(
                db, n_shards=workload.shards, config=GAT, strategy="spatial"
            )
        else:
            self.index = GATIndex.build(
                db, GAT, disk=SimulatedDisk(read_latency_s=workload.read_latency_s)
            )
        self.build_s = time.perf_counter() - t0
        self.frontend = None
        self._loop = None
        if workload.shards:
            self.service = ShardedQueryService(
                self.index,
                engine_config=engine_config,
                executor="thread",
                result_cache_size=0,
                fault_policy=FaultPolicy(),
            )
            self.frontend = ServingFrontend(self.service, ServingConfig())
            self._loop = asyncio.new_event_loop()
        else:
            self.service = QueryService(
                GATSearchEngine(self.index, config=engine_config), result_cache_size=0
            )

    def search(self, request: QueryRequest) -> QueryResponse:
        if self.frontend is not None:
            return self._loop.run_until_complete(self.frontend.submit(request))
        return self.service.search(request)

    def before_query(self) -> None:
        """Untimed per-query preparation: the cold workload starts every
        query with an empty HICL cache (the paper's per-query I/O count)."""
        if self.workload.cold:
            self.index.hicl.clear_cache()

    def reset_stats(self) -> None:
        self.service.reset_stats()
        if self.frontend is not None:
            self.frontend.reset_stats()

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self._loop.close()
        self.service.close()
        if self.workload.shards:
            self.index.close()
