"""Public optimization facade: algorithm registry and the request API.

The registry names match the paper's:

============== ====================================================
Name            Meaning
============== ====================================================
tdmincutbranch  TDMINCUTBRANCH — top-down driver + branch partitioning
tdmincutlazy    TDMINCUTLAZY — top-down driver + lazy min-cut partitioning
memoizationbasic MEMOIZATIONBASIC — top-down driver + naive partitioning
tdconservative  top-down driver + connected-subset generate-and-test
dpccp           DPccp — bottom-up csg-cmp-pair enumeration
dpsub           DPsub — bottom-up subset enumeration (oracle)
dpsize          DPsize — bottom-up size-driven enumeration
dpconv          DPconv-style (min,+) convolution — fast-exact tier for
                symmetric cost models (falls back to the top-down
                driver for asymmetric models or pruning requests)
============== ====================================================

Algorithms register through the :func:`register_algorithm` decorator;
``ALGORITHMS`` is the live name → factory dict, so external code can plug
in enumerators without editing this module::

    @register_algorithm("myenum")
    def _make_myenum(catalog, cost_model=None, enable_pruning=False):
        return MyEnumerator(catalog, cost_model=cost_model)

The preferred entry point is an :class:`OptimizationRequest` passed to
:func:`optimize_request`; :func:`optimize_query` remains as a thin
keyword-argument shim over it.  For a long-lived process serving many
queries, wrap the registry in a :class:`repro.service.OptimizerService`,
which adds plan caching, batching, and run-stats observability on top of
the same request/response objects.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.plan.jointree import JoinTree

if TYPE_CHECKING:
    from repro.catalog.workload import QueryInstance

__all__ = [
    "ALGORITHMS",
    "OptimizationRequest",
    "OptimizationResult",
    "choose_algorithm",
    "make_optimizer",
    "optimize_query",
    "optimize_request",
    "register_algorithm",
    "runs_dpconv",
    "unregister_algorithm",
]

#: Name -> factory(catalog, cost_model=None, enable_pruning=False).
#: Populated by :func:`register_algorithm`; this dict is the live view —
#: registrations and removals are visible to every reader immediately.
ALGORITHMS: Dict[str, Callable] = {}


def register_algorithm(name: str, *, replace_existing: bool = False) -> Callable:
    """Class/function decorator adding a factory to :data:`ALGORITHMS`.

    The decorated callable must accept
    ``(catalog, cost_model=None, enable_pruning=False)`` and return an
    object with an ``optimize() -> JoinTree`` method and a ``builder``
    attribute (see :class:`~repro.plan.builder.PlanBuilder`).

    Re-registering a taken name raises unless ``replace_existing=True``,
    so plugins fail loudly instead of silently shadowing the paper's
    algorithms.
    """

    def decorator(factory: Callable) -> Callable:
        if not replace_existing and name in ALGORITHMS:
            raise OptimizationError(
                f"algorithm {name!r} is already registered; "
                "pass replace_existing=True to override"
            )
        ALGORITHMS[name] = factory
        return factory

    return decorator


def unregister_algorithm(name: str) -> Callable:
    """Remove and return a registered factory (for plugin teardown)."""
    try:
        return ALGORITHMS.pop(name)
    except KeyError:
        raise OptimizationError(f"algorithm {name!r} is not registered") from None


# Each factory but the default imports its engine when first called, so
# importing this module loads only the top-down driver and MinCutBranch.


@register_algorithm("tdmincutbranch")
def _make_tdmincutbranch(catalog, cost_model=None, enable_pruning=False):
    return TopDownPlanGenerator(
        catalog, MinCutBranch, cost_model=cost_model, enable_pruning=enable_pruning
    )


@register_algorithm("tdmincutlazy")
def _make_tdmincutlazy(catalog, cost_model=None, enable_pruning=False):
    from repro.enumeration.mincutlazy import MinCutLazy

    return TopDownPlanGenerator(
        catalog, MinCutLazy, cost_model=cost_model, enable_pruning=enable_pruning
    )


@register_algorithm("memoizationbasic")
def _make_memoizationbasic(catalog, cost_model=None, enable_pruning=False):
    from repro.enumeration.naive import NaivePartitioning

    return TopDownPlanGenerator(
        catalog,
        NaivePartitioning,
        cost_model=cost_model,
        enable_pruning=enable_pruning,
    )


@register_algorithm("tdconservative")
def _make_tdconservative(catalog, cost_model=None, enable_pruning=False):
    from repro.enumeration.conservative import ConservativePartitioning

    return TopDownPlanGenerator(
        catalog,
        ConservativePartitioning,
        cost_model=cost_model,
        enable_pruning=enable_pruning,
    )


@register_algorithm("dpccp")
def _make_dpccp(catalog, cost_model=None, enable_pruning=False):
    if enable_pruning:
        raise OptimizationError("bottom-up enumeration cannot prune easily (Sec. I)")
    from repro.optimizer.dpccp import DPccp

    return DPccp(catalog, cost_model=cost_model)


@register_algorithm("dpsub")
def _make_dpsub(catalog, cost_model=None, enable_pruning=False):
    if enable_pruning:
        raise OptimizationError("bottom-up enumeration cannot prune easily (Sec. I)")
    from repro.optimizer.dpsub import DPsub

    return DPsub(catalog, cost_model=cost_model)


@register_algorithm("dpsize")
def _make_dpsize(catalog, cost_model=None, enable_pruning=False):
    if enable_pruning:
        raise OptimizationError("bottom-up enumeration cannot prune easily (Sec. I)")
    from repro.optimizer.dpsize import DPsize

    return DPsize(catalog, cost_model=cost_model)


@register_algorithm("dpconv")
def _make_dpconv(catalog, cost_model=None, enable_pruning=False):
    """DPconv fast-exact tier, with a clean fallback.

    The (min,+) convolution is only exact for symmetric cost models and
    has no pruning hook, so requests outside that envelope run the
    classic top-down driver instead of failing — the request API
    promises an exact plan for ``algorithm="dpconv"`` either way, and
    ``last_kernel`` tells which engine actually served it.
    """
    if not runs_dpconv(cost_model, enable_pruning):
        return TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            cost_model=cost_model,
            enable_pruning=enable_pruning,
        )
    from repro.optimizer.dpconv import DPconvPlanGenerator

    return DPconvPlanGenerator(catalog, cost_model=cost_model)


@dataclass(frozen=True)
class OptimizationRequest:
    """One optimization job, fully specified.

    The request object is the canonical input of both the facade
    (:func:`optimize_request`) and the service layer
    (:class:`repro.service.OptimizerService`): everything that influences
    the answer — and therefore everything a plan cache must key on — is a
    field here.

    ``query`` may be a :class:`Catalog`, a :class:`QueryInstance`, or a
    bare :class:`QueryGraph` (which gets uniform placeholder statistics —
    handy for structural experiments where, as in the paper, the numbers
    do not influence the search space).

    ``tag`` is an opaque caller correlation id echoed on the result;
    batch callers use it to match responses to submissions.

    ``deadline_seconds`` / ``node_budget`` bound the run cooperatively:
    engines that advertise ``supports_budget`` (the top-down driver and
    dpconv) stop cleanly when the budget expires and return a salvaged
    anytime plan (``details["anytime"]``) instead of the exact optimum.
    Neither field keys the plan cache — a budget changes *when* the
    search stops, never what the exact answer is, and salvaged results
    are never cached as exact.

    ``stats_epoch`` is a monotonically increasing catalog-statistics
    generation counter and *does* key the plan cache: two requests over
    the same graph whose statistics drifted by less than a rounding
    quantum would otherwise share a signature, silently serving the old
    plan after a stats refresh.  Callers bump it whenever the catalog's
    statistics are re-collected; the default 0 keeps old signatures
    (and persisted caches) valid.
    """

    query: Union[Catalog, QueryInstance, QueryGraph]
    algorithm: str = "tdmincutbranch"
    cost_model: Optional[CostModel] = None
    enable_pruning: bool = False
    allow_cross_products: bool = False
    tag: Optional[str] = None
    deadline_seconds: Optional[float] = None
    node_budget: Optional[int] = None
    stats_epoch: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.query, (Catalog, QueryGraph)):
            from repro.catalog.workload import QueryInstance

            if not isinstance(self.query, QueryInstance):
                raise OptimizationError(
                    f"cannot optimize object of type {type(self.query).__name__}"
                )
        if not isinstance(self.algorithm, str):
            raise OptimizationError(
                f"algorithm must be a registry name, got {self.algorithm!r}"
            )
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise OptimizationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds!r}"
            )
        if self.node_budget is not None and (
            not isinstance(self.node_budget, int) or self.node_budget < 1
        ):
            raise OptimizationError(
                f"node_budget must be a positive int, got {self.node_budget!r}"
            )
        if not isinstance(self.stats_epoch, int) or self.stats_epoch < 0:
            raise OptimizationError(
                f"stats_epoch must be a non-negative int, got {self.stats_epoch!r}"
            )

    def resolved_catalog(self) -> Catalog:
        """Return the statistics catalog the optimizer will run on.

        Bare graphs receive uniform placeholder statistics; with
        ``allow_cross_products=True`` disconnected graphs are stitched
        with artificial selectivity-1 edges (see
        :mod:`repro.catalog.crossproduct`) — the paper's search space
        itself is cross-product-free.
        """
        if isinstance(self.query, Catalog):
            catalog = self.query
        elif isinstance(self.query, QueryGraph):
            from repro.catalog.workload import uniform_statistics

            catalog = uniform_statistics(self.query)
        else:
            catalog = self.query.catalog
        if self.allow_cross_products:
            from repro.catalog.crossproduct import connect_components

            catalog = connect_components(catalog)
        return catalog

    def with_query(self, query) -> "OptimizationRequest":
        """Return a copy of the request aimed at a different query."""
        return replace(self, query=query)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to the versioned wire document.

        Preferred over importing :func:`repro.serialize.request_to_dict`
        directly for the common round-trip; both produce the same
        ``kind="optimization_request"`` document with ``"version": 1``.
        """
        from repro.serialize import request_to_dict

        return request_to_dict(self)

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "OptimizationRequest":
        """Deserialize a wire document produced by :meth:`to_dict`."""
        from repro.serialize import request_from_dict

        return request_from_dict(document)


@dataclass
class OptimizationResult:
    """Outcome of one optimization run with provenance and counters.

    ``plan`` is ``None`` exactly when ``error`` is set — batch execution
    isolates per-item failures into such results instead of raising.
    ``cache_hit``, ``signature``, and ``trace_id`` are populated by the
    service layer; direct facade calls leave them at their defaults.
    ``trace_id`` keys into the service's bounded trace store
    (``service.traces``), where the request's span tree can be looked up
    and exported.

    ``details`` carries run provenance: enumeration counters from the
    facade, and — for plans served by the service's degradation ladder —
    the JSON-safe markers ``degraded``/``rung``/``degrade_reason`` plus
    the admission estimate that triggered them.
    """

    plan: Optional[JoinTree]
    algorithm: str
    elapsed_seconds: float
    memo_entries: int
    cost_evaluations: int
    cardinality_estimations: int
    details: Dict[str, object] = field(default_factory=dict)
    cache_hit: bool = False
    signature: Optional[str] = None
    error: Optional[str] = None
    tag: Optional[str] = None
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff optimization produced a plan."""
        return self.error is None

    @property
    def cost(self) -> float:
        """Cost of the winning plan."""
        if self.plan is None:
            raise OptimizationError(f"no plan: optimization failed ({self.error})")
        return self.plan.cost

    @property
    def error_info(self):
        """The failure as a typed :class:`~repro.errors.ErrorInfo` (or None).

        Coerces legacy plain-string errors on the fly, so the property is
        always safe to read for ``.code`` / ``.retryable``.
        """
        from repro.errors import ErrorInfo

        return ErrorInfo.coerce(self.error)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to the versioned wire document (typed error payload).

        Preferred over importing :func:`repro.serialize.result_to_dict`
        directly for the common round-trip.
        """
        from repro.serialize import result_to_dict

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "OptimizationResult":
        """Deserialize a wire document produced by :meth:`to_dict`."""
        from repro.serialize import result_from_dict

        return result_from_dict(document)

    def summary(self) -> str:
        """One-line human-readable report."""
        if self.plan is None:
            return f"{self.algorithm}: failed ({self.error})"
        line = (
            f"{self.algorithm}: cost={self.plan.cost:.6g} "
            f"joins={self.plan.n_joins()} memo={self.memo_entries} "
            f"cost_evals={self.cost_evaluations} "
            f"card_estimations={self.cardinality_estimations} "
            f"time={self.elapsed_seconds * 1e3:.2f}ms"
        )
        if self.cache_hit:
            line += " [cached]"
        return line


#: Break-even #ccp per relation count: where C top-down's fitted time,
#: ``0.026 ms + 31.5 ns x #ccp``, meets C dpconv's measured time at that
#: ``n`` (the slower of chain-n and cycle-n, in the comments).  ``auto``
#: names dpconv for a request whose #ccp is above its entry.  The last
#: key is the one dpconv size limit: ``auto`` names dpconv up to it and
#: admission control admits a dpconv run up to it.  No entry is below
#: chain-``n``'s #ccp: the fit's fixed cost overstates top-down on tiny
#: graphs, and at ``n = 2`` it met dpconv below the single ccp of every
#: connected pair, though chain-2 ran 0.021 ms in top-down against
#: dpconv's 0.026 ms.  Measured 2026-10-20 on a 2-vCPU Intel Xeon host,
#: CPython 3.11.7, with ``python benchmarks/calibrate_auto.py``.
DPCONV_BREAK_EVEN_CCPS: Dict[int, int] = {
    2: 1,  # 0.0256 ms
    3: 18,  # 0.0263 ms
    4: 91,  # 0.0286 ms
    5: 198,  # 0.032 ms
    6: 252,  # 0.0337 ms
    7: 385,  # 0.0379 ms
    8: 470,  # 0.0406 ms
    9: 630,  # 0.0456 ms
    10: 971,  # 0.0564 ms
    11: 1406,  # 0.0701 ms
    12: 2214,  # 0.0956 ms
    13: 3664,  # 0.141 ms
    14: 6677,  # 0.236 ms
    15: 12098,  # 0.407 ms
    16: 25392,  # 0.826 ms
}


def runs_dpconv(cost_model: Optional[CostModel], enable_pruning: bool) -> bool:
    """True when ``algorithm="dpconv"`` runs the convolution itself.

    The (min,+) convolution is exact only for symmetric cost models and
    has no pruning hook; other requests run the top-down driver.
    """
    effective = cost_model if cost_model is not None else CoutCostModel()
    return not enable_pruning and effective.is_symmetric()


def _c_rung_resolves(cost_model: Optional[CostModel], n: int) -> bool:
    """True when dpconv would run the C rung: exactly C_out (or the
    default) and an already-built kernel; never compiles."""
    # Deferred so that importing the API never loads the kernel machinery.
    from repro.optimizer import native

    return native.resolve_backend(cost_model, n=n) == "c"


def _dpconv_predicted_faster(
    graph: QueryGraph, cost_model: Optional[CostModel]
) -> bool:
    n = graph.n_vertices
    break_even = DPCONV_BREAK_EVEN_CCPS.get(n)
    if break_even is None:
        return False
    if not graph.is_connected(graph.all_vertices):
        return False
    if not _c_rung_resolves(cost_model, n):
        return False
    from repro.optimizer import native

    return native.estimate_ccps(graph, break_even).ccps > break_even


def choose_algorithm(
    catalog: Catalog,
    enable_pruning: bool = False,
    cost_model: Optional[CostModel] = None,
) -> str:
    """Pick a registry algorithm for a query ("auto" mode).

    One rule: ``"dpconv"`` when the request's #ccp is above the
    break-even count for its ``n`` (:data:`DPCONV_BREAK_EVEN_CCPS`), else
    ``"tdmincutbranch"``.  #ccp is the price admission control puts on
    the same request, :func:`repro.optimizer.native.estimate_ccps`: the
    Table-I closed form for the fixed shapes, else an exact count that
    stops once it passes the break-even count.  Only requests the
    convolution serves exactly are eligible: no pruning, a connected
    graph (a cross-product request's catalog is already stitched),
    exactly :class:`~repro.cost.cout.CoutCostModel` (or the default),
    ``n`` from 2 to the table's last key, and an already-built C kernel
    (:func:`repro.optimizer.native.resolve_backend`, which never
    compiles).  The table's last key is also the size limit admission
    puts on a dpconv run, so ``auto`` never names a dpconv run that
    admission then rejects, and the library and the service resolve
    every request to the same engine.

    ``tdmincutbranch`` runs the C top-down kernel wherever one loads and
    the python kernel elsewhere; both honour cooperative budgets, so
    every answer stops at its deadline.  Without a kernel, dense
    queries therefore run python top-down rather than python DPccp, at
    0.9-1.4x DPccp's time on cliques 10-12 (``docs/ALGORITHMS.md``).
    """
    if not enable_pruning and _dpconv_predicted_faster(catalog.graph, cost_model):
        return "dpconv"
    return "tdmincutbranch"


def make_optimizer(
    algorithm: Union[str, OptimizationRequest],
    catalog: Optional[Catalog] = None,
    cost_model: Optional[CostModel] = None,
    enable_pruning: bool = False,
):
    """Instantiate a plan generator by registry name (or "auto").

    Also accepts a single :class:`OptimizationRequest`, from which the
    algorithm name, the resolved (and, with cross products, stitched)
    catalog, the cost model and the pruning flag are taken.
    """
    if isinstance(algorithm, OptimizationRequest):
        request = algorithm
        if catalog is not None:
            raise OptimizationError(
                "pass either an OptimizationRequest or (algorithm, catalog), not both"
            )
        catalog = request.resolved_catalog()
        algorithm = request.algorithm
        cost_model = request.cost_model
        enable_pruning = request.enable_pruning
    if catalog is None:
        raise OptimizationError("make_optimizer needs a catalog")
    if algorithm == "auto":
        algorithm = choose_algorithm(
            catalog, enable_pruning=enable_pruning, cost_model=cost_model
        )
    try:
        factory = ALGORITHMS[algorithm]
    except KeyError:
        raise OptimizationError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return factory(catalog, cost_model=cost_model, enable_pruning=enable_pruning)


def trivial_plan(catalog: Catalog) -> JoinTree:
    """Return the single-relation plan for an n=1 catalog.

    A one-relation query has an empty join search space; no enumerator or
    partitioner needs to run.  The plan is a bare scan leaf with cost 0,
    matching what every registered enumerator produces for n=1.
    """
    if catalog.graph.n_vertices != 1:
        raise OptimizationError(
            f"trivial_plan needs a single-relation catalog, "
            f"got {catalog.graph.n_vertices} relations"
        )
    return JoinTree(
        vertex_set=1,
        cardinality=catalog.cardinality(0),
        cost=0.0,
        relation=catalog.relations[0].name,
    )


def optimize_request(request: OptimizationRequest) -> OptimizationResult:
    """Optimize one :class:`OptimizationRequest` and return the result.

    This is the core execution path; :func:`optimize_query` and the
    service layer both route through it.  Single-relation queries take a
    fast path that builds the trivial scan plan directly.
    """
    catalog = request.resolved_catalog()
    started = time.perf_counter()
    if catalog.graph.n_vertices <= 1:
        plan = trivial_plan(catalog)
        return OptimizationResult(
            plan=plan,
            algorithm=request.algorithm,
            elapsed_seconds=time.perf_counter() - started,
            memo_entries=1,
            cost_evaluations=0,
            cardinality_estimations=0,
            details={"trivial": 1},
            tag=request.tag,
        )
    optimizer = make_optimizer(
        request.algorithm,
        catalog,
        cost_model=request.cost_model,
        enable_pruning=request.enable_pruning,
    )
    details: Dict[str, object] = {}
    if request.deadline_seconds is not None or request.node_budget is not None:
        if getattr(optimizer, "supports_budget", False):
            # The budget is anchored here, in the process actually doing
            # the enumeration — a deadline shipped across an executor
            # wire starts counting when the worker starts working, and
            # infrastructure latency is absorbed by the caller's grace
            # period instead of eating into the search.
            from repro.optimizer.budget import Budget

            optimizer.budget = Budget(
                deadline_seconds=request.deadline_seconds,
                node_cap=request.node_budget,
            )
        else:
            # Engines without cooperative support (the bottom-up
            # enumerators) run to completion; record that the bound was
            # requested but not enforced.
            details["budget_unsupported"] = 1
    plan = optimizer.optimize()
    elapsed = time.perf_counter() - started
    builder = optimizer.builder
    partitioner = getattr(optimizer, "partitioner", None)
    if partitioner is not None:
        details["ccps_emitted"] = partitioner.stats.emitted
        details["partitioner_calls"] = partitioner.stats.calls
    if hasattr(optimizer, "pruned_sets"):
        details["pruned_sets"] = optimizer.pruned_sets
    kernel = getattr(optimizer, "last_kernel", None)
    if kernel is not None:
        # "fast" (the top-down kernel, pruned or not) or "dpconv";
        # flows into the service's `enumerate` trace span and kernel
        # metrics unchanged.
        details["kernel"] = kernel
    backend = getattr(optimizer, "last_backend", None)
    if backend is not None:
        # Engine that executed the enumeration: "python", or "c" for
        # either compiled engine, dpconv or top-down (see
        # repro.optimizer.native).  The service mirrors it into metrics,
        # trace spans, and serve-stats so the fleet can tell which hosts
        # run accelerated.
        details["backend"] = backend
    if getattr(optimizer, "budget_expired", False):
        # The plan is a salvaged anytime answer, not the exact optimum:
        # valid and at most the pure-GOO cost, but callers (and the
        # service cache) must not treat it as exact.
        details["anytime"] = 1
        details["budget_expired"] = 1
        report = getattr(optimizer, "salvage_report", None)
        if report is not None:
            details["salvage"] = report
    return OptimizationResult(
        plan=plan,
        algorithm=request.algorithm,
        elapsed_seconds=elapsed,
        memo_entries=len(builder.memo),
        cost_evaluations=builder.cost_evaluations,
        cardinality_estimations=builder.estimator.estimations,
        details=details,
        tag=request.tag,
    )


def optimize_query(
    query: Union[Catalog, QueryInstance, QueryGraph],
    algorithm: str = "tdmincutbranch",
    cost_model: Optional[CostModel] = None,
    enable_pruning: bool = False,
    allow_cross_products: bool = False,
) -> OptimizationResult:
    """Optimize a query and return the plan with run statistics.

    Backward-compatible keyword shim over :func:`optimize_request`; see
    :class:`OptimizationRequest` for the meaning of each parameter.

    .. deprecated:: 1.1
       Passing a bare :class:`QueryGraph` where a :class:`Catalog` is
       expected still works (uniform placeholder statistics are attached)
       but now emits a :class:`DeprecationWarning`; build an explicit
       ``OptimizationRequest`` — or a catalog via
       :func:`repro.catalog.workload.uniform_statistics` — instead.
    """
    if isinstance(query, QueryGraph):
        warnings.warn(
            "passing a bare QueryGraph to optimize_query is deprecated; "
            "attach statistics with uniform_statistics(graph) or build an "
            "OptimizationRequest",
            DeprecationWarning,
            stacklevel=2,
        )
    return optimize_request(
        OptimizationRequest(
            query=query,
            algorithm=algorithm,
            cost_model=cost_model,
            enable_pruning=enable_pruning,
            allow_cross_products=allow_cross_products,
        )
    )
