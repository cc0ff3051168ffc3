"""Concurrent query serving on top of the stateless search engine.

The engine executes one query per :class:`~repro.core.context.ExecutionContext`
with no shared mutable state, so a single engine (and its index) can serve
many threads at once.  :class:`QueryService` packages that: single-query
``search``, thread-pooled ``search_many`` with deterministic result order,
and aggregate :class:`ServiceStats` (QPS, latency percentiles, cache hit
rates) for capacity planning.  The result cache, invalidation and that
accounting are the :class:`~repro.service.service.ServingFront` it shares
with the sharded service (see :mod:`repro.service.service`).
"""

from repro.service.service import (
    QueryRequest,
    QueryResponse,
    QueryService,
    ServiceStats,
)

__all__ = ["QueryService", "QueryRequest", "QueryResponse", "ServiceStats"]
