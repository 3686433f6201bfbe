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
  budget, the exact→DPconv→IKKBZ→GOO degradation ladder (the DPconv
  rung answers over-budget symmetric-cost queries with the *exact*
  optimum via :mod:`repro.optimizer.dpconv`), a per-algorithm circuit
  breaker, and retry policy/budget types (:class:`ResilienceConfig`
  bundles the knobs).
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

from repro.service.cache import CacheEntry, PlanCache
from repro.service.executor import EXECUTORS, JobOutcome, ProcessPoolExecutor
from repro.service.faults import FaultInjector, FaultSpec
from repro.service.metrics import LatencyHistogram, ServiceMetrics, render_prometheus
from repro.service.tracing import (
    NULL_TRACE,
    Span,
    Trace,
    Tracer,
    TraceStore,
    span_from_dict,
    span_to_dict,
)
from repro.service.resilience import (
    AdmissionEstimate,
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
    dpconv_admissible,
    estimate_ccps,
)
from repro.service.core import OptimizerService, request_signature
from repro.service.sharding import (
    ConsistentHashRing,
    ShardClient,
    ShardPool,
    TenantQuotas,
    TokenBucket,
    http_status_for_code,
)
from repro.service.frontdoor import FrontDoor, FrontDoorConfig

__all__ = [
    "AdmissionEstimate",
    "CacheEntry",
    "CircuitBreaker",
    "ConsistentHashRing",
    "EXECUTORS",
    "FrontDoor",
    "FrontDoorConfig",
    "FaultInjector",
    "FaultSpec",
    "JobOutcome",
    "LatencyHistogram",
    "NULL_TRACE",
    "OptimizerService",
    "PlanCache",
    "ProcessPoolExecutor",
    "ResilienceConfig",
    "RetryBudget",
    "RetryPolicy",
    "ServiceMetrics",
    "ShardClient",
    "ShardPool",
    "Span",
    "TenantQuotas",
    "TokenBucket",
    "Trace",
    "TraceStore",
    "Tracer",
    "dpconv_admissible",
    "estimate_ccps",
    "http_status_for_code",
    "render_prometheus",
    "request_signature",
    "span_from_dict",
    "span_to_dict",
]
