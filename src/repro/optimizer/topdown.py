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

from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.enumeration.base import PartitioningStrategy
from repro.errors import DisconnectedGraphError
from repro.optimizer import native
from repro.optimizer.budget import Budget, BudgetExpired
from repro.optimizer.kernel import run_fast_kernel
from repro.plan.builder import PlanBuilder
from repro.plan.jointree import JoinTree
from repro.plan.memo import MemoEntry

__all__ = ["TopDownPlanGenerator", "tdpgsub_reference"]


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
        Switch on accumulated-cost branch-and-bound, seeded with a
        greedy plan's cost.  Plain, pruned and budgeted runs all take
        the fast kernel (:mod:`repro.optimizer.kernel`, or its C
        transcription), so ``last_kernel`` reads ``"fast"`` after any
        run; :func:`tdpgsub_reference` is the paper-faithful recursion
        the kernel is proven bit-identical against.
    budget:
        Optional cooperative :class:`~repro.optimizer.budget.Budget`.
        When it expires mid-enumeration the run stops cleanly,
        ``budget_expired`` is set, and :meth:`optimize` returns a
        salvaged plan (see :mod:`repro.plan.salvage`) instead of the
        exact optimum; ``salvage_report`` then carries the optimality
        report.
    native_backend:
        ``None``/``"auto"``/``"c"``/``"off"`` — whether the compiled C
        top-down kernel (:func:`repro.optimizer.native.run_c_topdown`)
        may run.  It runs only for exactly ``MinCutBranch`` with its
        optimizations on, exactly ``CoutCostModel`` or exactly
        ``PhysicalCostModel`` over the bundled join implementations, no
        pruning and ``n`` <= 64, and is bit-identical to the python
        kernel there (plans, implementation names, memo, counters).  ``last_backend`` then reads ``"c"``;
        every other run is ``"python"``.
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
        budget: Optional[Budget] = None,
        native_backend: Optional[str] = None,
    ):
        self.catalog = catalog
        self.graph = catalog.graph
        self.cost_model = cost_model if cost_model is not None else CoutCostModel()
        self.partitioner = partitioning_factory(self.graph)
        self.builder = PlanBuilder(catalog, self.cost_model)
        self.enable_pruning = enable_pruning
        self.budget = budget
        self.budget_expired = False
        self.salvage_report = None
        self.last_kernel: Optional[str] = None
        native.check_backend(native_backend)
        self.native_backend = native_backend
        #: Engine that ran the last ``optimize()``: ``"python"`` or
        #: ``"c"`` (see :mod:`repro.optimizer.native`).
        self.last_backend: Optional[str] = None
        self.pruned_sets = 0
        #: After an expired run: unfinished sets on the kernel's work
        #: stack besides the root (which the memo holds as a placeholder).
        self.unfinished_sets = 0

    # ------------------------------------------------------------------

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
        bound = self._initial_upper_bound() if self.enable_pruning else None
        self.last_kernel = "fast"
        self.last_backend = "python"
        self.unfinished_sets = 0
        try:
            if bound is None:
                # The C kernel, when it runs, hands the plan out itself
                # and defers the memo until something reads it.
                plan = native.run_c_topdown(self, all_vertices)
                if plan is not None:
                    return plan
            run_fast_kernel(self, all_vertices, bound)
        except BudgetExpired:
            # Complete the partial memo into a valid plan.
            from repro.plan.salvage import salvage_plan

            self.budget_expired = True
            plan, self.salvage_report = salvage_plan(
                self.builder.memo,
                self.catalog,
                all_vertices,
                self.cost_model,
                unfinished=self.unfinished_sets,
            )
            return plan
        return self.builder.memo.extract_plan(all_vertices)

    def _initial_upper_bound(self) -> float:
        """Seed the branch-and-bound bound with a greedy plan's cost.

        A feasible plan's cost under the active cost model bounds the
        optimum from above.  GOO (greedy operator ordering) provides the
        plan, repriced under this driver's cost model exactly as the
        salvage floor is.  Falls back to an unbounded search if the
        heuristic fails for any reason.
        """
        from repro.heuristics.goo import greedy_operator_ordering
        from repro.plan.salvage import reprice

        try:
            plan = greedy_operator_ordering(self.catalog)
            return reprice(plan, self.cost_model).cost
        except Exception:
            return math.inf

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


def tdpgsub_reference(driver, vertex_set: int) -> MemoEntry:
    """TDPGSUB (Fig. 1): fill the memo entry for one connected set.

    The paper's recursion: the oracle the kernel is proven bit-identical
    against.  Only tests and the kernel benchmark call it; at about two
    frames per relation it hits ``RecursionError`` on deep chains.
    """
    memo = driver.builder.memo
    entry = memo.get_or_create(vertex_set)
    if entry.explored:
        return entry
    budget = driver.budget
    if budget is not None:
        budget.charge()
    lookup = memo.lookup
    build = driver.builder.build_trees
    recurse = tdpgsub_reference
    countdown = 256
    for left_set, right_set in driver.partitioner.partitions(vertex_set):
        if budget is not None:
            countdown -= 1
            if not countdown:
                countdown = 256
                budget.check()
        left = lookup(left_set)
        if left is None or not left.explored:
            recurse(driver, left_set)
        right = lookup(right_set)
        if right is None or not right.explored:
            recurse(driver, right_set)
        build(vertex_set, left_set, right_set)
    entry.explored = True
    return entry
