"""Long-lived optimizer service: plan cache, batching, observability.

The facade in :mod:`repro.optimizer.api` optimizes one query and throws
everything away.  A production deployment sees the same query *shapes*
over and over — the paper's point is that enumeration cost is driven by
graph shape, not statistics — so this package adds the serving layer:

* :class:`OptimizerService` — wraps the algorithm registry behind the
  :class:`~repro.optimizer.api.OptimizationRequest` /
  :class:`~repro.optimizer.api.OptimizationResult` objects, with
  ``optimize``, ``optimize_batch`` and ``stats_snapshot``.
* :class:`ProcessPoolExecutor` — batch backend that runs items in worker
  processes (true multi-core for CPU-bound enumeration) with per-item
  deadlines and worker recycling; ``optimize_batch`` uses it for
  ``executor="process"`` (the default for ``workers > 1``) and runs
  ``"serial"`` batches on the calling thread.
* :class:`PlanCache` — bounded, thread-safe LRU keyed by a canonical
  signature of (graph shape, rounded statistics, cost model class and
  parameters, algorithm, pruning flag, cross-product flag); JSON
  persistence via :mod:`repro.serialize`.
* :class:`ServiceMetrics` / :class:`LatencyHistogram` — monotonic
  counters (including deadline timeouts, heuristic fallbacks, degraded
  servings and retries) and p50/p95/p99 latency tracking per algorithm.
* :mod:`repro.service.resilience` — admission control against a ccp
  budget, the exact→anytime→IKKBZ→GOO degradation ladder (the anytime
  rung runs the exact engine under a deadline and salvages its partial
  memo), a per-algorithm circuit breaker, and retry policy/budget types
  (:class:`ResilienceConfig` bundles the knobs).
* :mod:`repro.service.faults` — deterministic fault injection
  (:class:`FaultSpec` / :class:`FaultInjector`) honored by the process
  executor for chaos testing.
* :mod:`repro.service.tracing` — dependency-free trace spans
  (:class:`Trace` / :class:`Span`), a bounded :class:`TraceStore`, and a
  :class:`Tracer` that stamps every request with a span tree (prepare →
  cache lookup → admission → enumerate → store) carrying the result
  counters, plus a slow-request log.  Spans survive the process
  executor's serialization boundary.  :func:`render_prometheus` turns a
  ``stats_snapshot`` into Prometheus text exposition format.

Quickstart::

    from repro import WorkloadGenerator
    from repro.service import OptimizerService

    service = OptimizerService(cache_capacity=256)
    instance = WorkloadGenerator(seed=1).fixed_shape("chain", 10)
    cold = service.optimize(instance.catalog)       # enumerates
    warm = service.optimize(instance.catalog)       # cache hit
    print(warm.cache_hit, service.stats_snapshot()["cache"])
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "AdmissionEstimate": "repro.optimizer.native",
    "CacheEntry": "repro.service.cache",
    "CircuitBreaker": "repro.service.resilience",
    "ConsistentHashRing": "repro.service.sharding",
    "EXECUTORS": "repro.service.executor",
    "FrontDoor": "repro.service.frontdoor",
    "FrontDoorConfig": "repro.service.frontdoor",
    "FaultInjector": "repro.service.faults",
    "FaultSpec": "repro.service.faults",
    "JobOutcome": "repro.service.executor",
    "LatencyHistogram": "repro.service.metrics",
    "NULL_TRACE": "repro.service.tracing",
    "OptimizerService": "repro.service.core",
    "PlanCache": "repro.service.cache",
    "ProcessPoolExecutor": "repro.service.executor",
    "ResilienceConfig": "repro.service.resilience",
    "RetryBudget": "repro.service.resilience",
    "RetryPolicy": "repro.service.resilience",
    "ServiceMetrics": "repro.service.metrics",
    "ShardClient": "repro.service.sharding",
    "ShardPool": "repro.service.sharding",
    "Span": "repro.service.tracing",
    "TenantQuotas": "repro.service.sharding",
    "TokenBucket": "repro.service.sharding",
    "Trace": "repro.service.tracing",
    "TraceStore": "repro.service.tracing",
    "Tracer": "repro.service.tracing",
    "estimate_ccps": "repro.optimizer.native",
    "http_status_for_code": "repro.service.sharding",
    "render_prometheus": "repro.service.metrics",
    "request_signature": "repro.service.core",
    "span_from_dict": "repro.service.tracing",
    "span_to_dict": "repro.service.tracing",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
