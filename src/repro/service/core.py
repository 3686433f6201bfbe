"""The long-lived optimizer service: cached, batched, observable.

:class:`OptimizerService` is the serving-layer counterpart of
:func:`repro.optimizer.api.optimize_request`.  It keeps a bounded LRU of
optimized plans keyed by :func:`request_signature` — a canonical digest
of everything that determines the answer:

* the query graph's **canonical form** (degree-refinement labeling from
  :mod:`repro.graph.canonical`), so isomorphic relabelings share a key;
* the **statistics rounded** to a configurable number of significant
  digits, serialized in canonical vertex order — near-identical
  workloads share plans, materially different ones do not;
* the **cost model** class *and its parameters* (via
  :meth:`~repro.cost.base.CostModel.signature_fields`), the **algorithm**
  (with ``"auto"`` resolved first), the **pruning flag**, and the
  **cross-product flag**.

Cached plans are stored in canonical vertex space and rebound to each
requesting query's numbering and relation names on a hit, so a hit costs
one canonical labeling plus a tree copy — orders of magnitude below
enumeration for anything non-trivial.  A caller that names each request
by a digest of its wire document (the front door forwards the one its
route memo hashes) skips even that on a replay: a bounded LRU of the
same capacity as the plan cache maps the digest to the resolved key —
decoded request, signature, canonical order and the engine ``"auto"``
chose — so the replay goes straight to the plan cache lookup.

Batches run on one of two executors — ``"serial"`` on the calling
thread, or ``"process"`` (:mod:`repro.service.executor`), which uses
multiple cores and honours per-item ``deadline_seconds`` by reclaiming
a hung worker, with an optional greedy-heuristic fallback plan for items
that blow the budget.  Custom cost models cross to the forked workers by
class name (:func:`repro.serialize.cost_model_to_dict`).  The cache
always lives in the parent, so hit behaviour is identical across
executors.

On top of that sits the **resilience layer**
(:mod:`repro.service.resilience`): before any exact enumeration the
service estimates the search-space size (#ccp) and compares it against
the configured admission budget, consults the per-algorithm-label
**circuit breaker**, and — when either says exact is unaffordable —
serves the request from a **degradation ladder** rung instead
(IKKBZ for acyclic graphs, GOO otherwise), recording the rung and the
reason on the result's ``details`` and in the metrics.  Transient
process-worker failures are retried with exponential backoff under a
per-batch budget, and a deterministic fault-injection layer
(:mod:`repro.service.faults`) lets the chaos tests script worker
crashes, hangs, corrupted payloads, and latency spikes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.catalog.workload import QueryInstance
from repro.cost.base import CostModel
from repro.errors import (
    DeadlineExceededError,
    ErrorInfo,
    OptimizationError,
    ReproError,
)
from repro.graph.canonical import canonical_form, signature_of_form
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import (
    OptimizationRequest,
    OptimizationResult,
    choose_algorithm,
    make_optimizer,
    optimize_request,
    runs_dpconv,
)
from repro.plan.jointree import JoinTree
from repro.service.cache import CacheEntry, LRUMemo, PlanCache
from repro.service.executor import (
    EXECUTORS,
    ProcessPoolExecutor,
    annotate_enumerate,
    check_deadline,
    stamp_deadline,
)
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics
from repro.service.tracing import Trace, Tracer, TraceStore
from repro.service.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    estimate_ccps,
    heuristic_rung_for,
    run_rung,
)

__all__ = [
    "OptimizerService",
    "request_signature",
    "service_signature",
]

#: Accepted ``fallback=`` values for ``optimize_batch``.
_FALLBACKS = (None, "goo")


def _round_significant(value: float, digits: int) -> float:
    """Round a finite value to ``digits`` significant figures.

    Signature-critical edge cases (these feed the cache key, so two
    different statistics must never collapse to one rounded value and a
    semantically identical pair must never diverge):

    * **zero** — both ``0.0`` and ``-0.0`` normalize to ``+0.0``;
      ``json.dumps`` renders ``-0.0`` as ``"-0.0"``, which would give two
      signatures for one statistic;
    * **negative** values round by the magnitude of their absolute value
      (``log10`` of the raw value would raise);
    * **denormals** — ``log10`` and ``round`` both handle subnormal
      floats, but the guard below keeps any value that would underflow
      the rounding grid to ``0.0`` at its original (distinct) value
      rather than colliding with true zero;
    * **huge integer statistics** beyond ``float`` range round exactly in
      integer space (``math.log10`` takes arbitrary ints; ``round`` on an
      int never overflows).
    """
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    rounded = round(value, digits - 1 - magnitude)
    if rounded == 0:
        return value
    return rounded


def _is_finite_stat(value) -> bool:
    """True for usable statistics; huge ints beyond float range count.

    ``math.isfinite`` raises ``OverflowError`` on an int too large for a
    double — such a cardinality is still perfectly finite, and the
    signature math handles it exactly.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return isinstance(value, int)


def request_signature(
    catalog: Catalog,
    algorithm: str,
    cost_model: Optional[CostModel] = None,
    enable_pruning: bool = False,
    round_digits: int = 4,
    allow_cross_products: bool = False,
    stats_epoch: int = 0,
) -> Tuple[str, Tuple[int, ...]]:
    """Return ``(signature, order)`` for a fully resolved request.

    ``signature`` is a hex digest over the canonical graph form, the
    rounded statistics in canonical order, the cost model class *and its
    parameters* (:meth:`~repro.cost.base.CostModel.signature_fields`),
    the algorithm name, the pruning flag, and the cross-product flag.
    A nonzero ``stats_epoch`` is mixed in as well, so a statistics
    refresh invalidates cached plans even when every refreshed value
    rounds back to the same ``round_digits`` quantum; epoch 0 is omitted
    from the payload so historical signatures (and persisted cache
    snapshots) stay valid.
    ``order`` is the canonical vertex order used (``order[p]`` = this
    catalog's vertex at canonical position ``p``), which the service
    needs to rebind cached plans.

    Rounded base cardinalities seed the labeling as vertex colors, so
    statistics both sharpen the canonical form (less symmetry to branch
    over) and participate in key identity.

    Statistics are validated here: a non-finite cardinality or
    selectivity raises :class:`~repro.errors.OptimizationError` naming
    the offending relation(s) instead of surfacing as a bare
    ``OverflowError``/``ValueError`` from the rounding math.

    The cost model is keyed by its class's ``__module__`` and
    ``__qualname__``, so two different classes that share a bare name
    (say, ``Model`` defined in two factory functions) never share plans.
    """
    graph = catalog.graph
    n = graph.n_vertices
    for vertex in range(n):
        cardinality = catalog.cardinality(vertex)
        if not _is_finite_stat(cardinality):
            raise OptimizationError(
                f"non-finite cardinality {cardinality!r} for relation "
                f"{catalog.relations[vertex].name!r}; fix the catalog "
                "statistics before optimizing"
            )
    for (u, v) in graph.edges:
        selectivity = catalog.selectivity(u, v)
        if not _is_finite_stat(selectivity):
            raise OptimizationError(
                f"non-finite selectivity {selectivity!r} on the edge "
                f"between relations {catalog.relations[u].name!r} and "
                f"{catalog.relations[v].name!r}; fix the catalog "
                "statistics before optimizing"
            )
    cards = [
        _round_significant(catalog.cardinality(v), round_digits) for v in range(n)
    ]
    ranking = {c: i for i, c in enumerate(sorted(set(cards)))}
    order, edges = canonical_form(graph, initial_colors=[ranking[c] for c in cards])
    position = [0] * n
    for pos, vertex in enumerate(order):
        position[vertex] = pos
    canonical_sels = sorted(
        (
            min(position[u], position[v]),
            max(position[u], position[v]),
            _round_significant(catalog.selectivity(u, v), round_digits),
        )
        for (u, v) in graph.edges
    )
    payload = {
        "shape": signature_of_form(n, edges),
        "cards": [cards[order[p]] for p in range(n)],
        "sels": canonical_sels,
        "cost_model": (
            f"{type(cost_model).__module__}.{type(cost_model).__qualname__}"
            if cost_model
            else "default"
        ),
        "cost_model_params": (
            cost_model.signature_fields() if cost_model else {}
        ),
        "algorithm": algorithm,
        "pruning": bool(enable_pruning),
        "cross_products": bool(allow_cross_products),
    }
    if stats_epoch:
        payload["stats_epoch"] = int(stats_epoch)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), order


def service_signature(
    request: OptimizationRequest,
    catalog: Catalog,
    default_cost_model: Optional[CostModel] = None,
    resilience: Optional[ResilienceConfig] = None,
    round_digits: int = 4,
) -> Tuple[Optional[CostModel], str, str, List[int]]:
    """What a service built with these settings keys ``request`` by.

    Returns ``(cost_model, effective, signature, order)``: the cost
    model the service injects (the request's own, else
    ``default_cost_model``), the engine ``"auto"`` resolves to, and
    :func:`request_signature` over both.  ``"auto"`` gets the service's
    ``ResilienceConfig.dpconv_max_n``, so it never picks a dpconv run
    that admission then rejects.  The keyword arguments mirror
    :class:`OptimizerService`'s.  The front door, the shard pipeline and
    the metrics label all call this with the shard's settings, so the
    engine — part of the signature — and with it the owning shard are
    the same on both sides of the wire.
    """
    cost_model = (
        request.cost_model if request.cost_model is not None else default_cost_model
    )
    effective = request.algorithm
    if effective == "auto":
        if resilience is None:
            resilience = ResilienceConfig()
        effective = choose_algorithm(
            catalog,
            enable_pruning=request.enable_pruning,
            cost_model=cost_model,
            allow_cross_products=request.allow_cross_products,
            dpconv_max_n=resilience.dpconv_max_n,
        )
    signature, order = request_signature(
        catalog,
        effective,
        cost_model,
        request.enable_pruning,
        round_digits,
        allow_cross_products=request.allow_cross_products,
        stats_epoch=request.stats_epoch,
    )
    return cost_model, effective, signature, order


def _rebind_plan(
    node: JoinTree,
    vertex_of_position: Sequence[int],
    catalog: Optional[Catalog],
) -> JoinTree:
    """Map a plan between vertex spaces through ``vertex_of_position``.

    With a ``catalog``, leaf relation names are taken from it (canonical →
    query space); with ``None`` leaves get ``C<position>`` placeholders
    (query → canonical space, for storage).
    """
    mapped_set = 0
    for pos in bitset.iter_indices(node.vertex_set):
        mapped_set |= 1 << vertex_of_position[pos]
    if node.is_leaf:
        vertex = mapped_set.bit_length() - 1
        name = catalog.relations[vertex].name if catalog else f"C{vertex}"
        return JoinTree(
            vertex_set=mapped_set,
            cardinality=node.cardinality,
            cost=node.cost,
            relation=name,
        )
    return JoinTree(
        vertex_set=mapped_set,
        cardinality=node.cardinality,
        cost=node.cost,
        left=_rebind_plan(node.left, vertex_of_position, catalog),
        right=_rebind_plan(node.right, vertex_of_position, catalog),
        implementation=node.implementation,
    )


@dataclass(frozen=True)
class _ResolvedKey:
    """What the prepare step resolves a request to: its cache key and
    everything a hit needs to rebind and label the cached plan.

    ``request`` is the request as decoded; a memoized key serves a later
    request only when that request shares its ``query`` object — under
    a wire digest, because :meth:`OptimizerService.recall` returned it.
    """

    request: OptimizationRequest
    catalog: Catalog
    cost_model: Optional[CostModel]
    effective: str
    signature: str
    order: Tuple[int, ...]


@dataclass
class _Job:
    """One request moving through the pipeline.

    Created as the request enters (trace started, clock running), with
    the caller's ``digest`` of the wire document when it has one, or
    ``fingerprinted`` for an :meth:`OptimizerService.optimize` call
    without one; :meth:`OptimizerService._begin` then fills in the resolved request,
    the cache outcome and the admission decision.  ``hit`` is the ready
    cache-hit result.  Otherwise ``degrade`` names the ladder rung that
    serves the request, or is ``None`` when ``run_request`` — catalog
    materialized, ``"auto"`` resolved, cost model injected — goes to the
    exact engine, in which case ``admitted`` is set and the circuit
    breaker is owed the engine's outcome.
    """

    request: OptimizationRequest
    trace: Trace
    started: float
    digest: Optional[str] = None
    fingerprinted: bool = False
    run_request: Optional[OptimizationRequest] = None
    catalog: Optional[Catalog] = None
    effective: Optional[str] = None
    signature: str = ""
    order: Tuple[int, ...] = ()
    hit: Optional[OptimizationResult] = None
    degrade: Optional[Tuple[str, str, Dict]] = None
    admitted: bool = False


class OptimizerService:
    """Long-lived optimization endpoint with caching and observability.

    Parameters
    ----------
    cache_capacity:
        Maximum number of cached plans (LRU beyond that); it also bounds
        the digest memo behind :meth:`recall`.
    default_algorithm:
        Registry name (or ``"auto"``) used when a raw query — rather than
        an :class:`OptimizationRequest` — is submitted.
    default_cost_model:
        Cost model injected into requests that carry none.
    round_digits:
        Significant digits statistics are rounded to for cache keying;
        lower values trade plan-quality fidelity for a higher hit rate.
    default_deadline_seconds:
        Per-item wall-clock budget applied to process batches that do
        not pass their own ``deadline_seconds`` (``None`` = no
        deadline; otherwise finite and positive).
    resilience:
        :class:`~repro.service.resilience.ResilienceConfig` with the
        admission budget, breaker, and retry knobs (``None`` = defaults:
        no admission budget, no retries, breaker armed at 5 consecutive
        failures).
    fault_injector:
        Chaos-test fault directives for the process executor
        (``None`` = read ``REPRO_FAULTS`` from the environment, which is
        empty in production).
    tracing:
        Record a per-request trace — a tree of timed spans (``prepare``
        → ``canonicalize`` → ``cache_lookup`` → ``admission`` →
        ``enumerate``/``degraded_rung`` → ``rebind`` → ``store``) — into
        the bounded in-memory store at ``service.traces``
        (:class:`~repro.service.tracing.TraceStore`).  On by default;
        overhead is gated under 5% on the warm-cache path by the
        ``observability`` gate in ``benchmarks/gates.py``.
    trace_capacity:
        Finished traces retained by the store (oldest evicted beyond).
    slow_log_ms:
        Slow-request threshold in milliseconds: any request at least
        this slow is logged at ``WARNING`` on the stdlib logger
        ``repro.service.slow`` with a per-stage breakdown
        (``None`` = slow log off).

    The service is thread-safe: ``optimize`` may be called concurrently,
    and ``optimize_batch`` runs items serially or on a worker-process
    pool with per-item error isolation (a failing query yields a result
    with ``error`` set instead of poisoning the batch).
    """

    def __init__(
        self,
        cache_capacity: int = 512,
        default_algorithm: str = "auto",
        default_cost_model: Optional[CostModel] = None,
        round_digits: int = 4,
        default_deadline_seconds: Optional[float] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_log_ms: Optional[float] = None,
    ):
        check_deadline(default_deadline_seconds)
        self.cache = PlanCache(cache_capacity)
        self._digests = LRUMemo(cache_capacity)
        self._fingerprints = LRUMemo(cache_capacity)
        self.metrics = ServiceMetrics()
        self.default_algorithm = default_algorithm
        self.default_cost_model = default_cost_model
        self.round_digits = round_digits
        self.default_deadline_seconds = default_deadline_seconds
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.breaker = CircuitBreaker(
            threshold=self.resilience.breaker_threshold,
            cooldown_seconds=self.resilience.breaker_cooldown_seconds,
        )
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector.from_env()
        )
        self.tracer = Tracer(
            store=TraceStore(trace_capacity),
            enabled=tracing,
            slow_log_ms=slow_log_ms,
        )

    @property
    def traces(self) -> TraceStore:
        """The bounded store of finished request traces."""
        return self.tracer.store

    # ------------------------------------------------------------------

    def _as_request(
        self,
        query: Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph],
        **overrides,
    ) -> OptimizationRequest:
        if isinstance(query, OptimizationRequest):
            return replace(query, **overrides) if overrides else query
        overrides.setdefault("algorithm", self.default_algorithm)
        return OptimizationRequest(query=query, **overrides)

    def _signature(self, request: OptimizationRequest, catalog: Catalog):
        """:func:`service_signature` under this service's settings."""
        return service_signature(
            request,
            catalog,
            self.default_cost_model,
            self.resilience,
            self.round_digits,
        )

    def _effective_label(self, request: OptimizationRequest) -> str:
        """Resolve the metrics label for a request, ``"auto"`` included.

        Successes are recorded under the effective algorithm, so errors
        must be too — otherwise per-algorithm error rates are skewed by
        a phantom ``"auto"`` bucket.  Resolution itself is best-effort:
        if the query is too broken to resolve, the raw name is used.
        """
        try:
            return self._signature(request, request.resolved_catalog())[1]
        except Exception:
            return request.algorithm

    def recall(
        self, digest: Optional[str], deadline_seconds: Optional[float] = None
    ) -> Optional[OptimizationRequest]:
        """The request decoded earlier from the document named ``digest``.

        ``digest`` identifies a wire request document *without* its
        deadline (the front door's route-memo hash); ``deadline_seconds``
        is the deadline this arrival carries, which replaces the
        memoized one.  Returns ``None`` for no digest or an unknown or
        evicted one — the caller then decodes the document itself.  A
        lookup counts as a digest-memo hit or miss in :meth:`stats_snapshot`.
        Passing the returned request to :meth:`optimize` with the same
        ``digest`` skips the key resolution (canonical labeling and the
        ``"auto"`` choice).
        """
        key = self._digests.get(digest) if digest is not None else None
        if key is None:
            return None
        request = key.request
        if request.deadline_seconds != deadline_seconds:
            request = replace(request, deadline_seconds=deadline_seconds)
        return request

    def optimize(
        self,
        query: Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph],
        digest: Optional[str] = None,
        **overrides,
    ) -> OptimizationResult:
        """Optimize one query, consulting and feeding the plan cache.

        ``query`` may be a ready :class:`OptimizationRequest` (keyword
        overrides are applied on top) or any raw query object the request
        accepts.  ``digest`` names the wire document a request was
        decoded from (see :meth:`recall`): the resolved key is memoized
        under it, and a request that :meth:`recall` returned reuses it.
        Without a digest the key is memoized under the exact fingerprint
        of the catalog and the signature's options (:meth:`_fingerprint`),
        and a later call for the same catalog object reuses it.  Raises the library's usual typed errors on failure; use
        :meth:`optimize_batch` for isolated per-item errors.  A failure
        of any type is recorded (an error under the effective label, a
        stored trace with the ``error`` root attribute) before it
        propagates.
        """
        # Overrides make a request other than the one ``digest`` names.
        job = self._start(
            self._as_request(query, **overrides),
            None if overrides else digest,
        )
        job.fingerprinted = job.digest is None
        try:
            self._begin(job)
            return self._run_in_thread(job)
        except Exception as exc:
            self._fail(job, exc)
            raise

    # -- the request pipeline: prepare → admission → engine → finish ----

    def _start(
        self, request: OptimizationRequest, digest: Optional[str] = None
    ) -> _Job:
        return _Job(
            request,
            self.tracer.start("optimize", tag=request.tag),
            time.perf_counter(),
            digest,
        )

    def _resolve(self, job: _Job) -> bool:
        """Resolve the job's cache key; True when a memo had it.

        A memoized key skips the catalog resolution and
        :func:`service_signature` (canonical labeling plus the ``"auto"``
        choice).  A job with a wire digest looks it up in the digest memo;
        a ``fingerprinted`` one looks up the exact fingerprint of its
        catalog and signature options (:meth:`_fingerprint`) in a memo of
        its own, so in-process calls never evict the door's digests.
        Either way the key must have been resolved for this very query
        object.  Batch items resolve in full: on a memoized hit tracing
        costs ~10% of the request, above the 5% the ``observability``
        gate allows for the batch warm path.
        """
        request = job.request
        memo_key = None
        if job.digest is not None:
            memo, memo_key = self._digests, job.digest
        elif job.fingerprinted:
            memo, memo_key = self._fingerprints, self._fingerprint(request)
        key = memo.peek(memo_key) if memo_key is not None else None
        memoized = key is not None and key.request.query is request.query
        if not memoized:
            catalog = request.resolved_catalog()
            cost_model, effective, signature, order = self._signature(
                request, catalog
            )
            key = _ResolvedKey(
                request, catalog, cost_model, effective, signature, tuple(order)
            )
            if memo_key is not None:
                memo.put(memo_key, key)
        job.run_request = replace(
            request,
            query=key.catalog,
            cost_model=key.cost_model,
            algorithm=key.effective,
        )
        job.catalog = key.catalog
        job.effective = key.effective
        job.signature = key.signature
        job.order = key.order
        return memoized

    def _fingerprint(self, request: OptimizationRequest) -> Optional[tuple]:
        """Exact memo key of a request without a digest, or None.

        The raw statistics (:meth:`Catalog.fingerprint`, no rounding and
        no labeling) plus every other input of the signature: algorithm,
        cost model class and parameters, pruning and cross-product
        flags, ``stats_epoch`` and ``round_digits``.  Only catalog
        queries are memoized; a bare graph gets fresh placeholder
        statistics on every request anyway.
        """
        query = request.query
        if isinstance(query, QueryInstance):
            query = query.catalog
        if not isinstance(query, Catalog):
            return None
        model = request.cost_model
        if model is None:
            model = self.default_cost_model
        return (
            query.fingerprint(),
            request.algorithm,
            model and (
                type(model), json.dumps(model.signature_fields(), sort_keys=True)
            ),
            request.enable_pruning,
            request.allow_cross_products,
            request.stats_epoch,
            self.round_digits,
        )

    def _begin(self, job: _Job) -> None:
        """Prepare (resolve the key, look it up), then admission.

        On a cache hit ``job.hit`` is the ready result and the pipeline
        skips admission; otherwise ``job.degrade``/``job.admitted``
        record whether a ladder rung or the exact engine serves it.
        """
        request = job.request
        trace = job.trace
        with trace.span("prepare"):
            with trace.span("canonicalize") as span:
                memoized = self._resolve(job)
                span.annotate(
                    algorithm=job.effective,
                    n_relations=job.catalog.graph.n_vertices,
                    signature=job.signature[:16],
                    memoized=memoized,
                )
            with trace.span("cache_lookup") as span:
                entry = self.cache.get(job.signature)
                span.set("hit", entry is not None)
            if entry is not None:
                with trace.span("rebind"):
                    plan = _rebind_plan(entry.plan, job.order, job.catalog)
                job.hit = OptimizationResult(
                    plan=plan,
                    algorithm=request.algorithm,
                    elapsed_seconds=time.perf_counter() - job.started,
                    memo_entries=entry.memo_entries,
                    cost_evaluations=entry.cost_evaluations,
                    cardinality_estimations=entry.cardinality_estimations,
                    details=dict(entry.details),
                    cache_hit=True,
                    signature=job.signature,
                    tag=request.tag,
                )
                return
        with trace.span("admission") as span:
            degrade = self._select_degradation(job)
            span.set("admitted", degrade is None)
            span.set("breaker_state", self.breaker.state(job.effective))
            if degrade is not None:
                span.annotate(rung=degrade[0], reason=degrade[1], **degrade[2])
        job.degrade = degrade
        job.admitted = degrade is None

    def _run_in_thread(self, job: _Job) -> OptimizationResult:
        """Engine stage on this thread, then :meth:`_finish`.

        Cache hits and ladder rungs always take this path, in process
        mode too; exact enumeration takes it in ``optimize()`` and serial
        batches.  Raises whatever the engine raises.
        """
        if job.hit is not None:
            return self._finish(job, job.hit)
        trace = job.trace
        if job.degrade is not None:
            with trace.span("degraded_rung") as span:
                result, provenance = self._run_degraded(job, *job.degrade)
                span.annotate(
                    rung=provenance["rung"],
                    reason=provenance["degrade_reason"],
                    kernel=result.details.get("kernel"),
                    backend=result.details.get("backend"),
                )
            return self._finish(job, result, provenance)
        with trace.span("enumerate") as span:
            result = optimize_request(job.run_request)
            annotate_enumerate(span, result)
        return self._finish(job, result)

    def _finish(
        self,
        job: _Job,
        result: OptimizationResult,
        provenance: Optional[Dict] = None,
        elapsed: Optional[float] = None,
        retries: int = 0,
        killable: bool = False,
    ) -> OptimizationResult:
        """Finish stage of a served request, wherever its engine ran.

        Records the breaker success an admitted exact run owes, caches
        the result unless it is a salvaged or heuristic plan (the cache
        promises the exact optimum, and keeps the clean enumeration
        details), stamps the ladder ``provenance`` and the service
        fields, then observes the metrics and closes the trace.
        ``elapsed`` defaults to the service-side wall time; a process
        worker's outcome passes its own.  ``killable`` marks an engine
        run under a hard process deadline, so a salvaged answer counts
        as a hard kill avoided.
        """
        trace = job.trace
        fresh = not result.cache_hit
        if fresh:
            details = result.details
            if provenance is not None:
                details = {**details, **provenance}
            if not (details.get("anytime") or details.get("degraded")):
                with trace.span("store"):
                    self._store(job, result)
                result.signature = job.signature
            if job.admitted:
                self.breaker.record_success(job.effective)
            result.algorithm = job.request.algorithm
            result.tag = job.request.tag
            result.details = details
        details = result.details
        anytime = fresh and bool(details.get("anytime"))
        self.metrics.observe(
            job.effective,
            time.perf_counter() - job.started if elapsed is None else elapsed,
            cache_hit=not fresh,
            degraded=fresh and bool(details.get("degraded")),
            fast_exact=fresh and bool(details.get("fast_exact")),
            anytime=anytime,
            hard_kill_avoided=anytime and killable,
            salvage_fraction=(
                (details.get("salvage") or {}).get("memo_solved_fraction")
                if anytime
                else None
            ),
            retries=retries,
            kernel=details.get("kernel") if fresh else None,
            backend=details.get("backend") if fresh else None,
        )
        result.trace_id = trace.trace_id
        self.tracer.finish(trace, algorithm=job.effective, cache_hit=not fresh)
        return result

    def _fail(
        self,
        job: _Job,
        error: Union[BaseException, str],
        elapsed: Optional[float] = None,
        retries: int = 0,
        status: Optional[str] = None,
    ) -> OptimizationResult:
        """Finish stage of a failed request; returns its error result.

        ``error`` is the exception, or a process worker's ``"Type:
        message"`` report (``status`` then names the outcome).  The
        error is recorded under the effective label, an admitted exact
        run owes the breaker a failure, and the trace is stored with the
        ``error`` root attribute.
        """
        label = job.effective or self._effective_label(job.request)
        if elapsed is None:
            elapsed = time.perf_counter() - job.started
        trace = job.trace
        result = self._error_result(
            job.request.algorithm, job.request.tag, error, elapsed
        )
        result.trace_id = trace.trace_id
        trace.set_root("error", str(result.error))
        if job.admitted:
            self.breaker.record_failure(label)
        self.metrics.observe(label, elapsed, error=True, retries=retries)
        if status is not None:
            trace.set_root("status", status)
        self.tracer.finish(trace, algorithm=label)
        return result

    def _store(self, job: _Job, result: OptimizationResult) -> None:
        """Cache a fresh result in canonical vertex space."""
        position = [0] * job.catalog.graph.n_vertices
        for pos, vertex in enumerate(job.order):
            position[vertex] = pos
        self.cache.put(
            CacheEntry(
                signature=job.signature,
                plan=_rebind_plan(result.plan, position, None),
                algorithm=job.effective,
                memo_entries=result.memo_entries,
                cost_evaluations=result.cost_evaluations,
                cardinality_estimations=result.cardinality_estimations,
                details=dict(result.details),
            )
        )

    # -- resilience: admission control and the degradation ladder ------

    def _select_degradation(
        self, job: _Job
    ) -> Optional[Tuple[str, str, Dict]]:
        """Decide whether this job must skip exact enumeration.

        Returns ``None`` to run the exact algorithm, else
        ``(rung, reason, extra_details)``.  Admission prices the engine
        that will run: the ccp budget for the enumerators, and
        ``dpconv_max_n`` for dpconv, whose work does not depend on #ccp.
        The admission budget is checked *before* the breaker
        so that over-budget requests never consume a half-open probe
        slot.  When the breaker's ``allow``
        admits the job, the caller owes it a matching
        ``record_success``/``record_failure``.
        """
        graph = job.catalog.graph
        if graph.n_vertices <= 1 or not graph.is_connected(graph.all_vertices):
            # Trivial queries take the n<=1 fast path; disconnected ones
            # (without cross products) fail identically on every rung —
            # let the exact path raise its precise typed error.
            return None
        cfg = self.resilience
        run = job.run_request
        if cfg.max_ccp_budget is not None:
            # Price the engine that will run.  The convolution's work
            # depends on n alone, so a dpconv run answers to its own
            # size limit, never to the ccp budget.  A rejected run goes
            # straight to a heuristic: the anytime rung would run the
            # same convolution, whose O(2^n) arrays are allocated before
            # its first budget check.
            if run.algorithm == "dpconv" and runs_dpconv(
                run.cost_model, run.enable_pruning
            ):
                if graph.n_vertices > cfg.dpconv_max_n:
                    extra = {
                        "admission_estimate": graph.n_vertices,
                        "admission_method": "dpconv-n-limit",
                        "admission_budget": cfg.dpconv_max_n,
                    }
                    return (heuristic_rung_for(graph), "over_budget", extra)
            else:
                # With cross products enabled the client opted into a
                # search space bounded by the clique, not the raw
                # predicate edges — price that, or admission
                # under-prices by orders of magnitude (and used to crash
                # on disconnected inputs).
                estimate = estimate_ccps(
                    graph,
                    cfg.admission_exact_max_n,
                    allow_cross_products=run.allow_cross_products,
                )
                if estimate.ccps > cfg.max_ccp_budget:
                    extra = {
                        "admission_estimate": estimate.ccps,
                        "admission_method": estimate.method,
                        "admission_budget": cfg.max_ccp_budget,
                    }
                    return self._over_budget(job, extra)
        if not self.breaker.allow(job.effective):
            return (heuristic_rung_for(graph), "breaker_open", {})
        return None

    def _over_budget(self, job: _Job, extra: Dict) -> Tuple[str, str, Dict]:
        """The ladder below ``exact`` for an over-budget enumerator.

        Anytime rung: instead of jumping straight to a heuristic, run
        the requested exact engine under a cooperative deadline — it
        either finishes (exact answer after all) or salvages the partial
        memo into a plan that is never worse than pure GOO.  Only
        engines that advertise cooperative budgets qualify; anything
        else would ignore the deadline and run to completion.
        """
        if (
            self.resilience.anytime_enabled
            and self._anytime_deadline(job) is not None
            and self._budget_capable(job)
        ):
            return ("anytime", "over_budget", extra)
        return (heuristic_rung_for(job.catalog.graph), "over_budget", extra)

    def _anytime_deadline(self, job: _Job) -> Optional[float]:
        """Resolve the deadline an anytime run would use, or None.

        A request that carries its own ``deadline_seconds`` keeps it;
        otherwise the ladder applies the configured default.  ``None``
        means no deadline is available and the anytime rung must not be
        offered (an unbounded "anytime" run is just the exact run that
        admission already rejected).
        """
        if job.run_request.deadline_seconds is not None:
            return job.run_request.deadline_seconds
        return self.resilience.anytime_default_deadline_seconds

    def _budget_capable(self, job: _Job) -> bool:
        """True when the job's engine honours cooperative budgets.

        Probes the registry factory: construction is O(n) (builder +
        partitioner setup, no enumeration) and only happens on the rare
        over-budget admission path.  Plugins that never heard of budgets
        simply report False and degrade to the heuristics as before.
        """
        try:
            probe = make_optimizer(
                job.effective,
                job.catalog,
                cost_model=job.run_request.cost_model,
                enable_pruning=job.run_request.enable_pruning,
            )
        except ReproError:
            return False
        return bool(getattr(probe, "supports_budget", False))

    def _run_degraded(
        self, job: _Job, rung: str, reason: str, extra: Dict
    ) -> Tuple[OptimizationResult, Dict]:
        """Serve one request from a degradation ladder rung.

        Returns the rung's result and its *provenance* — the ladder
        fields (``rung``, ``degrade_reason``, the admission estimate,
        and ``fast_exact`` or ``degraded``) that :meth:`_finish` stamps
        onto ``details`` after deciding whether to cache.

        The ``anytime`` rung runs the requested exact engine under a
        cooperative deadline, through the full registry path
        (``optimize_request``) so counters, kernel provenance and trace
        details arrive as usual.  If the engine finishes inside the
        budget the answer is the exact optimum: it is marked
        ``fast_exact`` instead of ``degraded`` and, unlike the heuristic
        rungs, **is** cached.  If the budget expires the salvaged plan is
        marked ``degraded`` with ``rung == "anytime"`` and is **never**
        cached.  If the rung fails, the request falls through to the
        heuristics.

        A heuristic result is **not** cached (the cache promises the
        exact optimum).  A heuristic rung failure is wrapped in the
        reason's typed error so callers can tell "the ladder had nothing
        for this query" apart from ordinary optimization failures.
        """
        started = time.perf_counter()
        if rung == "anytime":
            deadline = self._anytime_deadline(job)
            stamp = {
                "rung": rung,
                "degrade_reason": reason,
                "anytime_deadline_seconds": deadline,
            }
            try:
                result = optimize_request(
                    replace(job.run_request, deadline_seconds=deadline)
                )
            except ReproError:
                rung = heuristic_rung_for(job.catalog.graph)
            else:
                result.elapsed_seconds = time.perf_counter() - started
                # An expired budget salvaged a valid plan, at most the
                # pure-GOO cost, but not the exact optimum.
                grade = "degraded" if result.details.get("anytime") else "fast_exact"
                return result, {grade: 1, **stamp, **extra}
        try:
            plan, rung_used = run_rung(rung, job.catalog)
        except ReproError as exc:
            from repro.errors import AdmissionError, CircuitOpenError

            error_type = (
                CircuitOpenError if reason == "breaker_open" else AdmissionError
            )
            raise error_type(
                f"request was degraded ({reason}) but the {rung!r} rung "
                f"failed too: {exc}"
            ) from exc
        result = OptimizationResult(
            plan=plan,
            algorithm=job.request.algorithm,
            elapsed_seconds=time.perf_counter() - started,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            tag=job.request.tag,
        )
        return result, {
            "degraded": 1, "rung": rung_used, "degrade_reason": reason, **extra
        }

    # ------------------------------------------------------------------

    def optimize_batch(
        self,
        queries: Iterable[
            Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph]
        ],
        workers: int = 4,
        executor: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        fallback: Optional[str] = None,
    ) -> List[OptimizationResult]:
        """Optimize many queries, isolating per-item failures.

        Results come back in submission order.  An item that raises — a
        disconnected graph without ``allow_cross_products``, an unknown
        algorithm, a malformed query object of any type — produces an
        :class:`OptimizationResult` with ``plan=None`` and ``error`` set;
        the other items are unaffected.

        Parameters
        ----------
        workers:
            Pool width.  With ``executor=None``, ``workers <= 1`` runs
            serially on the calling thread and anything wider runs on
            the process pool.
        executor:
            ``"serial"`` or ``"process"`` (``None`` follows ``workers``).
            ``"process"`` runs exact enumeration in worker processes —
            the mode where CPU-bound enumeration actually uses multiple
            cores, and the one that can reclaim a hung item by recycling
            its worker.  Workers are forked per batch, so any cost model
            the service runs in-process crosses too, looked up by class
            name (see :func:`repro.serialize.cost_model_to_dict`); an
            item whose model cannot be named unambiguously fails alone.
        deadline_seconds:
            Per-item wall-clock budget (``None`` = service default);
            finite and positive, else :class:`OptimizationError`.  In
            process mode a budget-capable engine gets it as a
            cooperative budget and salvages a plan; anything else is
            enforced by terminating the worker, so the item resolves
            within roughly the deadline plus scheduling slack, never
            hanging the batch.  Serial mode ignores deadlines — items
            run to completion one by one.
        fallback:
            ``"goo"`` to serve a greedy-operator-ordering heuristic plan
            (:func:`repro.heuristics.greedy_operator_ordering`) for items
            that exceed the deadline instead of an error result.  The
            fallback plan is marked ``details={"deadline_timeout": 1,
            "fallback_goo": 1}`` and is **not** cached (it is not the
            exact optimum the cache promises).
        """
        if executor is None:
            executor = "serial" if workers <= 1 else "process"
        if executor not in EXECUTORS:
            raise OptimizationError(
                f"unknown executor {executor!r}; choose from {sorted(EXECUTORS)}"
            )
        if fallback not in _FALLBACKS:
            raise OptimizationError(
                f"unknown fallback {fallback!r}; choose from "
                f"{[f for f in _FALLBACKS if f]} or None"
            )
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        check_deadline(deadline_seconds)
        requests: List[Optional[OptimizationRequest]] = []
        slots: List[Optional[OptimizationResult]] = []
        for query in queries:
            try:
                requests.append(self._as_request(query))
                slots.append(None)
            except Exception as exc:
                # The query object itself is malformed — possibly not
                # even raising a library error (e.g. a TypeError from a
                # garbage object).  Synthesize the
                # error result instead of poisoning the batch.
                requests.append(None)
                slots.append(self._error_result("invalid", None, exc, 0.0))
                self.metrics.observe("invalid", 0.0, error=True)
        if executor == "serial":
            for index, request in enumerate(requests):
                if slots[index] is None:
                    slots[index] = self._run_isolated(request)
        else:
            self._run_batch_process(
                requests, slots, workers, deadline_seconds, fallback
            )
        return slots  # type: ignore[return-value]

    def _run_isolated(self, request: OptimizationRequest) -> OptimizationResult:
        """Run one request, converting any exception into an error result."""
        job = self._start(request)
        try:
            self._begin(job)
            return self._run_in_thread(job)
        except Exception as exc:  # per-item isolation: never kill the batch
            return self._fail(job, exc)

    # -- process backend -----------------------------------------------

    def _run_batch_process(
        self,
        requests: List[Optional[OptimizationRequest]],
        slots: List[Optional[OptimizationResult]],
        workers: int,
        deadline_seconds: Optional[float],
        fallback: Optional[str],
    ) -> None:
        from repro.serialize import request_to_dict, result_from_dict

        jobs: Dict[int, _Job] = {}
        documents: List[Tuple[int, Dict]] = []
        for index, request in enumerate(requests):
            if slots[index] is not None:
                continue
            job = self._start(request)
            try:
                self._begin(job)
                if not job.admitted:
                    # Cache hits and ladder rungs are served here.
                    slots[index] = self._run_in_thread(job)
                    continue
                document = request_to_dict(job.run_request)
                if deadline_seconds is not None and self._budget_capable(job):
                    # Ship the batch deadline as the engine's cooperative
                    # budget: it salvages instead of being hard-killed.
                    document = stamp_deadline(document, deadline_seconds)
            except Exception as exc:
                slots[index] = self._fail(job, exc)
                continue
            if job.trace.is_recording:
                # Trace context travels inside the job document; the
                # worker strips it before deserializing the request and
                # returns its spans in the outcome.
                document["trace"] = {"version": 1, "trace_id": job.trace.trace_id}
            jobs[index] = job
            documents.append((index, document))
        if not documents:
            return
        cfg = self.resilience
        backend = ProcessPoolExecutor(
            workers=max(1, workers),
            deadline_seconds=deadline_seconds,
            retry_policy=cfg.retry_policy(),
            retry_budget=(
                RetryBudget(cfg.retry_budget_per_batch)
                if cfg.max_retries > 0
                else None
            ),
            fault_injector=self.fault_injector,
        )
        for index, outcome in backend.run(documents).items():
            job = jobs[index]
            if outcome.spans:
                # Worker spans carry offsets relative to the job's start
                # in the worker; anchor them so they sit roughly where
                # the remote work happened on this process's timeline.
                job.trace.attach_serialized(
                    outcome.spans, elapsed_hint=outcome.elapsed_seconds
                )
            if outcome.retries:
                job.trace.set_root("retries", outcome.retries)
            if outcome.status == "ok":
                slots[index] = self._finish(
                    job,
                    result_from_dict(outcome.document),
                    elapsed=outcome.elapsed_seconds,
                    retries=outcome.retries,
                    killable=deadline_seconds is not None,
                )
            elif outcome.status == "timeout":
                slots[index] = self._deadline_result(
                    job,
                    deadline_seconds,
                    fallback,
                    outcome.elapsed_seconds,
                    retries=outcome.retries,
                )
            else:  # "error" or "crashed"
                slots[index] = self._fail(
                    job,
                    outcome.error,
                    elapsed=outcome.elapsed_seconds,
                    retries=outcome.retries,
                    status=outcome.status,
                )

    # -- deadline handling ---------------------------------------------

    def _deadline_result(
        self,
        job: _Job,
        deadline_seconds: float,
        fallback: Optional[str],
        elapsed: float,
        retries: int = 0,
    ) -> OptimizationResult:
        """Resolve a timed-out item: heuristic fallback plan or error.

        A deadline timeout counts as a breaker failure for the item's
        algorithm label — repeated hangs on the same path open the
        circuit just like repeated crashes do.  Closes the item's trace.
        """
        request = job.request
        label = job.effective
        self.breaker.record_failure(label)
        plan = None
        if fallback == "goo":
            from repro.heuristics.goo import greedy_operator_ordering

            try:
                plan = greedy_operator_ordering(job.catalog)
            except Exception:
                plan = None
        self.metrics.observe(
            label,
            elapsed,
            error=plan is None,
            timeout=True,
            fallback=plan is not None,
            retries=retries,
        )
        if plan is None:
            result = self._error_result(
                request.algorithm,
                request.tag,
                DeadlineExceededError(
                    f"optimization exceeded the deadline of {deadline_seconds}s"
                ),
                elapsed,
            )
        else:
            result = OptimizationResult(
                plan=plan,
                algorithm=request.algorithm,
                elapsed_seconds=elapsed,
                memo_entries=0,
                cost_evaluations=0,
                cardinality_estimations=0,
                details={"deadline_timeout": 1, "fallback_goo": 1},
                tag=request.tag,
            )
        result.trace_id = job.trace.trace_id
        job.trace.set_root("error", "deadline exceeded")
        self.tracer.finish(job.trace, algorithm=label, status="timeout")
        return result

    @staticmethod
    def _error_result(algorithm, tag, error, elapsed) -> OptimizationResult:
        """An error result; ``error`` is an exception or a worker's
        ``"Type: message"`` report, which keeps the type's wire code."""
        return OptimizationResult(
            plan=None,
            algorithm=algorithm,
            elapsed_seconds=elapsed,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            error=(
                ErrorInfo.coerce(error)
                if isinstance(error, str)
                else ErrorInfo.from_exception(error)
            ),
            tag=tag,
        )

    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict:
        """Return a JSON-ready snapshot of cache, digest memo, breaker,
        and request metrics."""
        from repro.optimizer.native import native_backend_status

        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["digest_memo"] = self._digests.stats()
        snapshot["breaker"] = self.breaker.snapshot()
        snapshot["backends"] = native_backend_status()
        return snapshot

    def reset_stats(self) -> None:
        """Start a fresh metrics epoch (the cache contents survive; the
        circuit breaker keeps its state — it models path health, not an
        observation window)."""
        self.metrics.reset()

    def save_cache(self, path: str) -> int:
        """Persist the plan cache to a JSON file; returns entry count."""
        return self.cache.save(path)

    def load_cache(self, path: str) -> int:
        """Warm the plan cache from a JSON file; returns entries loaded."""
        return self.cache.load(path)
