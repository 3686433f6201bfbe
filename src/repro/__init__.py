"""repro — Top-down join enumeration with MinCutBranch.

A faithful, production-quality reproduction of:

    Pit Fender and Guido Moerkotte.
    "A New, Highly Efficient, and Easy To Implement Top-Down Join
    Enumeration Algorithm."  ICDE 2011.

The library provides the paper's contribution (branch partitioning /
MinCutBranch), the prior top-down state of the art (DeHaan & Tompa's
MinCutLazy on biconnection trees), naive generate-and-test partitioning,
and the bottom-up baselines (DPccp, DPsub, DPsize) — all running on one
shared optimizer infrastructure (query graphs, memo table, cardinality
estimation, cost models), exactly as the paper's evaluation demands.

Quickstart::

    from repro import chain_graph, attach_random_statistics, optimize_query

    graph = chain_graph(8)
    catalog = attach_random_statistics(graph, seed=42)
    result = optimize_query(catalog, algorithm="tdmincutbranch")
    print(result.plan.pretty())
"""

from repro._lazy import attach as _attach
from repro.errors import (
    ReproError,
    GraphError,
    DisconnectedGraphError,
    CatalogError,
    OptimizationError,
    DeadlineExceededError,
)

# Every other public name is imported from its defining module the first
# time it is read (see repro._lazy): ``import repro`` loads no subpackage,
# and ``from repro.optimizer.api import optimize_request`` does not load
# the service layer.
_EXPORTS = {
    # graph
    "QueryGraph": "repro.graph.query_graph",
    "chain_graph": "repro.graph.shapes",
    "star_graph": "repro.graph.shapes",
    "cycle_graph": "repro.graph.shapes",
    "clique_graph": "repro.graph.shapes",
    "grid_graph": "repro.graph.shapes",
    "make_shape": "repro.graph.shapes",
    "random_acyclic_graph": "repro.graph.random",
    "random_cyclic_graph": "repro.graph.random",
    "BiconnectionTree": "repro.graph.bcctree",
    # catalog
    "Catalog": "repro.catalog.statistics",
    "Relation": "repro.catalog.statistics",
    "attach_random_statistics": "repro.catalog.workload",
    "uniform_statistics": "repro.catalog.workload",
    "QueryInstance": "repro.catalog.workload",
    "WorkloadGenerator": "repro.catalog.workload",
    # cost
    "CostModel": "repro.cost.base",
    "CoutCostModel": "repro.cost.cout",
    "PhysicalCostModel": "repro.cost.physical",
    "CardinalityEstimator": "repro.cost.cardinality",
    # plan
    "JoinTree": "repro.plan.jointree",
    "MemoTable": "repro.plan.memo",
    "PlanBuilder": "repro.plan.builder",
    # enumeration
    "PartitioningStrategy": "repro.enumeration.base",
    "NaivePartitioning": "repro.enumeration.naive",
    "ConservativePartitioning": "repro.enumeration.conservative",
    "MinCutBranch": "repro.enumeration.mincutbranch",
    "MinCutLazy": "repro.enumeration.mincutlazy",
    # optimizers
    "TopDownPlanGenerator": "repro.optimizer.topdown",
    "DPccp": "repro.optimizer.dpccp",
    "DPsub": "repro.optimizer.dpsub",
    "DPsize": "repro.optimizer.dpsize",
    "ALGORITHMS": "repro.optimizer.api",
    "OptimizationRequest": "repro.optimizer.api",
    "OptimizationResult": "repro.optimizer.api",
    "make_optimizer": "repro.optimizer.api",
    "optimize_query": "repro.optimizer.api",
    "optimize_request": "repro.optimizer.api",
    "register_algorithm": "repro.optimizer.api",
    "unregister_algorithm": "repro.optimizer.api",
    # service layer
    "OptimizerService": "repro.service.core",
    "PlanCache": "repro.service.cache",
    # diagnostics
    "explain": "repro.analysis.explain",
    "explain_comparison": "repro.analysis.explain",
    # heuristics
    "optimal_left_deep": "repro.heuristics.leftdeep",
    "greedy_operator_ordering": "repro.heuristics.goo",
    "IKKBZ": "repro.heuristics.ikkbz",
    "ikkbz_optimal_left_deep": "repro.heuristics.ikkbz",
}

_SUBMODULES = (
    "analysis",
    "bench",
    "bitset",
    "catalog",
    "cost",
    "enumeration",
    "exec",
    "frontend",
    "graph",
    "heuristics",
    "optimizer",
    "plan",
    "service",
    "workloads",
)

__getattr__, __dir__ = _attach(globals(), _EXPORTS, _SUBMODULES)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "CatalogError",
    "OptimizationError",
    "DeadlineExceededError",
    *_EXPORTS,
    "__version__",
]
