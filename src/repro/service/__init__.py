"""Concurrent query serving on top of the stateless search engine.

The engine executes one query per :class:`~repro.core.context.ExecutionContext`
with no shared mutable state, so a single engine (and its index) can serve
many threads at once.  :class:`QueryService` packages that: single-query
``search``, thread-pooled ``search_many`` with deterministic result order,
and aggregate :class:`ServiceStats` (QPS, latency percentiles, cache hit
rates) for capacity planning.  It is the one-shard case of the one
backend, :class:`~repro.shard.service.ShardedQueryService` (see
:mod:`repro.service.service`).
"""

from repro.service.service import QueryRequest, QueryResponse, ServiceStats

__all__ = ["QueryService", "QueryRequest", "QueryResponse", "ServiceStats"]


def __getattr__(name: str):
    # Resolved on first use, like repro.service.service.QueryService.
    if name == "QueryService":
        from repro.shard.service import QueryService

        return QueryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
