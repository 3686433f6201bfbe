"""Generic top-down join enumeration via memoization (Fig. 1).

``TopDownPlanGenerator`` is the paper's TDPLANGEN/TDPGSUB pair: a driver
that can be instantiated with any :class:`~repro.enumeration.base.PartitioningStrategy`.
The paper's named algorithms are instantiations:

* TDMINCUTBRANCH — driver + :class:`~repro.enumeration.mincutbranch.MinCutBranch`
* TDMINCUTLAZY   — driver + :class:`~repro.enumeration.mincutlazy.MinCutLazy`
* MEMOIZATIONBASIC — driver + :class:`~repro.enumeration.naive.NaivePartitioning`

An optional accumulated-cost bound implements the branch-and-bound pruning
the paper deliberately leaves out of its measurements ("pruning gives the
same advantage to all top-down algorithms"); it is off by default so that
benchmark comparisons against bottom-up remain raw, exactly as in the
paper, and can be switched on to demonstrate the top-down advantage the
conclusion anticipates.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.enumeration.base import PartitioningStrategy
from repro.errors import DisconnectedGraphError
from repro.optimizer.budget import Budget, BudgetExpired
from repro.optimizer.kernel import run_fast_kernel
from repro.plan.builder import PlanBuilder
from repro.plan.jointree import JoinTree
from repro.plan.memo import MemoEntry

__all__ = ["TopDownPlanGenerator"]


class TopDownPlanGenerator:
    """TDPLANGEN: top-down join enumeration with memoization.

    Parameters
    ----------
    catalog:
        Query statistics (graph + cardinalities + selectivities).
    partitioning_factory:
        Callable building a partitioning strategy from the query graph,
        e.g. ``MinCutBranch`` itself or ``lambda g: MinCutBranch(g, ...)``.
    cost_model:
        Join pricing; defaults to the paper's ``C_out``.
    enable_pruning:
        Switch on accumulated-cost branch-and-bound (see
        :mod:`repro.optimizer.pruning` for the analysis helpers).
    use_kernel:
        ``None`` (default) or ``True`` selects the fast enumeration
        kernel (:mod:`repro.optimizer.kernel`) whenever pruning is off;
        ``False`` always runs the paper-faithful recursive reference
        driver.  Pruning stays on the reference path either way.  Both
        paths produce bit-identical plans and counters; ``last_kernel``
        reports which one ran.
    budget:
        Optional cooperative :class:`~repro.optimizer.budget.Budget`.
        When it expires mid-enumeration the run stops cleanly,
        ``budget_expired`` is set, and :meth:`optimize` returns a
        salvaged plan (see :mod:`repro.plan.salvage`) instead of the
        exact optimum; ``salvage_report`` then carries the optimality
        report.
    """

    name = "topdown"

    #: The service layer threads per-request deadlines only into engines
    #: that advertise cooperative budget support.
    supports_budget = True

    def __init__(
        self,
        catalog: Catalog,
        partitioning_factory: Callable[..., PartitioningStrategy],
        cost_model: Optional[CostModel] = None,
        enable_pruning: bool = False,
        use_kernel: Optional[bool] = None,
        budget: Optional[Budget] = None,
    ):
        self.catalog = catalog
        self.graph = catalog.graph
        self.cost_model = cost_model if cost_model is not None else CoutCostModel()
        self.partitioner = partitioning_factory(self.graph)
        self.builder = PlanBuilder(catalog, self.cost_model)
        self.enable_pruning = enable_pruning
        self.use_kernel = use_kernel
        self.budget = budget
        self.budget_expired = False
        self.salvage_report = None
        self.last_kernel: Optional[str] = None
        #: The top-down driver always runs in the interpreter — the
        #: native rungs live behind the dpconv tier — but reporting the
        #: engine uniformly lets the service label every result with a
        #: ``backend`` (see :mod:`repro.optimizer.native`).
        self.last_backend = "python"
        self.pruned_sets = 0
        self._proven_budget = {}

    # ------------------------------------------------------------------

    def _kernel_selected(self) -> bool:
        """Resolve whether this run takes the fast kernel path."""
        if self.enable_pruning:
            # Branch-and-bound budgets thread through the recursion;
            # pruning stays on the reference driver (and prunes away the
            # constant-factor problem the kernel exists to solve).
            return False
        return self.use_kernel is not False

    def optimize(self) -> JoinTree:
        """Return an optimal bushy, cross-product-free join tree for G.

        Raises :class:`DisconnectedGraphError` when the query graph is
        disconnected (the search space excludes cross products).
        """
        all_vertices = self.graph.all_vertices
        if not self.graph.is_connected(all_vertices):
            raise DisconnectedGraphError(
                "query graph is disconnected; the cross-product-free search "
                "space has no solution (join the components explicitly)"
            )
        try:
            if self.enable_pruning:
                self.last_kernel = "reference"
                self._tdpg_sub_pruning(all_vertices, self._initial_upper_bound())
            elif self._kernel_selected():
                self.last_kernel = "fast"
                run_fast_kernel(self, all_vertices)
            else:
                self.last_kernel = "reference"
                self._tdpg_sub(all_vertices)
        except BudgetExpired:
            self.budget_expired = True
            return self._salvage(all_vertices)
        return self.builder.memo.extract_plan(all_vertices)

    def _salvage(self, root_set: int) -> JoinTree:
        """Complete the partial memo into a valid plan after budget expiry."""
        from repro.plan.salvage import salvage_plan

        plan, report = salvage_plan(
            self.builder.memo, self.catalog, root_set, self.cost_model
        )
        self.salvage_report = report
        return plan

    def _initial_upper_bound(self) -> float:
        """Seed the branch-and-bound budget with a greedy plan's cost.

        A feasible plan's cost under the active cost model is a valid
        budget: the optimum cannot exceed it, and pruning only discards
        candidates that provably cannot do better.  GOO (greedy operator
        ordering) provides the plan; its joins are re-priced under this
        driver's cost model (GOO itself optimizes C_out).  Falls back to
        an unbounded search if the heuristic fails for any reason.
        """
        try:
            from repro.heuristics.goo import greedy_operator_ordering

            plan = greedy_operator_ordering(self.catalog)
        except Exception:
            return math.inf
        total = 0.0
        for node in plan.inner_nodes():
            local, _ = self.cost_model.join_cost(
                node.left.cardinality, node.right.cardinality, node.cardinality
            )
            total += local
        # Guard against last-ulp float differences between this pricing
        # and the search's own accumulation order.
        return total * (1.0 + 1e-9)

    # ------------------------------------------------------------------

    def _tdpg_sub(self, vertex_set: int) -> MemoEntry:
        """TDPGSUB (Fig. 1): fill the memo entry for one connected set."""
        memo = self.builder.memo
        entry = memo.get_or_create(vertex_set)
        if entry.explored:
            return entry
        budget = self.budget
        if budget is not None:
            budget.charge()
        lookup = memo.lookup
        build = self.builder.build_trees
        recurse = self._tdpg_sub
        countdown = 256
        for left_set, right_set in self.partitioner.partitions(vertex_set):
            if budget is not None:
                countdown -= 1
                if not countdown:
                    countdown = 256
                    budget.check()
            left = lookup(left_set)
            if left is None or not left.explored:
                recurse(left_set)
            right = lookup(right_set)
            if right is None or not right.explored:
                recurse(right_set)
            build(vertex_set, left_set, right_set)
        entry.explored = True
        return entry

    # ------------------------------------------------------------------
    # Branch-and-bound pruning (the paper's anticipated top-down advantage)
    # ------------------------------------------------------------------

    def _tdpg_sub_pruning(self, vertex_set: int, budget: float) -> float:
        """TDPGSUB with accumulated-cost branch-and-bound.

        Returns the optimal cost for ``vertex_set`` if it is at most
        ``budget``, else ``inf`` (proving the optimum exceeds the budget).
        Soundness relies on the cost model's local join cost being at least
        the output cardinality (true for ``C_out`` and the default
        physical model), which makes the result cardinality an admissible
        lower bound on any plan's cost.  ``_proven_budget`` records the
        largest budget each set was searched under: a memoized cost is
        exact once it is at most that budget.
        """
        memo = self.builder.memo
        entry = memo.get_or_create(vertex_set)
        if entry.is_leaf:
            return entry.cost
        proven = self._proven_budget.get(vertex_set, -math.inf)
        if entry.cost <= proven:
            return entry.cost if entry.cost <= budget else math.inf
        if proven >= budget:
            # Already proven that the optimum exceeds this budget.
            self.pruned_sets += 1
            return math.inf
        lower_bound = self._cost_lower_bound(vertex_set)
        if lower_bound > budget:
            self._proven_budget[vertex_set] = max(proven, budget)
            self.pruned_sets += 1
            return math.inf
        run_budget = self.budget
        if run_budget is not None:
            run_budget.charge()
        countdown = 256
        for left_set, right_set in self.partitioner.partitions(vertex_set):
            if run_budget is not None:
                countdown -= 1
                if not countdown:
                    countdown = 256
                    run_budget.check()
            bound = min(budget, entry.cost)
            join_bound = lower_bound  # local cost of the final join of S
            right_bound = self._cost_lower_bound(right_set)
            left_cost = self._tdpg_sub_pruning(
                left_set, bound - join_bound - right_bound
            )
            if left_cost == math.inf:
                continue
            right_cost = self._tdpg_sub_pruning(
                right_set, bound - join_bound - left_cost
            )
            if right_cost == math.inf:
                continue
            self.builder.build_trees(vertex_set, left_set, right_set)
        self._proven_budget[vertex_set] = max(proven, budget)
        if entry.cost <= budget:
            entry.explored = True
            return entry.cost
        return math.inf

    def _cost_lower_bound(self, vertex_set: int) -> float:
        """Admissible plan-cost lower bound for a relation set.

        A base relation costs nothing; any multi-relation plan must at
        least produce its final result, so the estimated result
        cardinality bounds the plan cost from below for cost models whose
        local join cost dominates the output cardinality.
        """
        if vertex_set & (vertex_set - 1) == 0:  # singleton
            return 0.0
        entry = self.builder.memo.get_or_create(vertex_set)
        if entry.cardinality is None:
            entry.cardinality = self.builder.estimator.estimate(vertex_set)
        return entry.cardinality

    # ------------------------------------------------------------------

    def count_ccps(self) -> int:
        """Number of ccps the partitioner emitted so far (both operands)."""
        return self.partitioner.stats.emitted

    def __repr__(self) -> str:
        return (
            f"TopDownPlanGenerator(partitioner={self.partitioner.name}, "
            f"cost_model={self.cost_model.name}, "
            f"n={self.graph.n_vertices})"
        )
