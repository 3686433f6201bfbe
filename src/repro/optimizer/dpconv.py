"""DPconv-style fast-exact tier: layered (min,+) subset convolution.

DPconv (Stoian, 2024 — see PAPERS.md) reframes join ordering for
*symmetric* cost functions as a sequence of (min,+) convolutions: the
best cost of a relation set ``S`` is the minimum over unordered splits
``S = T ∪ C`` of ``local(S) + dp[T] + dp[C]``, and the DP can proceed
layer by layer over subset sizes because every proper subset of a set is
settled before the set itself.  This module implements that tier as a
registered algorithm with the same request/response surface as the
paper's enumerators.

Why this beats the PR 6 kernel on dense graphs even though both touch
``O(3^n)`` split candidates: the kernel drives a *partitioner* — per ccp
it crosses a Python callback boundary, maintains min-cut bookkeeping,
and pays the top-down driver's deferral machinery — while this DP is a
flat pair of array reads and one compare per candidate split over
dense, index-addressed arrays (no memo objects, no callbacks, no
recursion).  On clique-14 with ``C_out`` that constant-factor gap is
≥1.5x (the ``dpconv`` gate in ``benchmarks/gates.py`` holds it).

Restrictions, and why they are principled rather than incidental:

* **Symmetric cost models only** (``CostModel.is_symmetric()``).  The
  convolution prices each unordered split once; an asymmetric model
  (e.g. the physical model's nested-loop join) prices ``(T, C)`` and
  ``(C, T)`` differently, so collapsing orientations would silently
  drop candidates.  The registry factory falls back to the classic
  top-down driver for asymmetric models instead of guessing.
* **No branch-and-bound pruning.**  The DP settles every connected
  subset bottom-up; there is no search tree to cut.  Pruning requests
  also fall back to the top-down driver, which owns that capability.

Equivalence with the reference enumerator is exact on the cost value:
the candidate set per relation set is identical (connected ``T``/``C``
partitioning a connected ``S`` always have a crossing edge, i.e. are
exactly the ccps), operand costs are final when read, and for ``C_out``
the shared output-cardinality term distributes over ``min`` bitwise
(monotonicity of float addition), so ``tests/test_dpconv_equivalence.py``
asserts bit-identical optimal costs wherever cardinality arithmetic is
itself exact (power-of-two statistics) and 1e-9 agreement elsewhere.
Tie-breaks may differ — splits are scanned in descending-submask order,
not partitioner emission order — so plan *shape* can legitimately
differ between equally-optimal plans.  The compiled C rung
(:mod:`repro.optimizer.native`) is held to the stricter bar: the same
plan tree and bit-identical cost as this pure loop, on any statistics.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.errors import DisconnectedGraphError, OptimizationError
from repro.optimizer.budget import Budget, BudgetExpired
from repro.plan.builder import PlanBuilder
from repro.plan.jointree import JoinTree

__all__ = ["DPconvPlanGenerator"]


class DPconvPlanGenerator:
    """Bottom-up (min,+) convolution over subset splits.

    Drop-in registry citizen: ``optimize()`` returns a
    :class:`~repro.plan.jointree.JoinTree`, ``builder`` exposes the
    memo/counters, and ``last_kernel`` reports ``"dpconv"`` after a run
    (the service surfaces it in metrics and trace spans exactly like the
    top-down driver's ``"fast"``).

    Raises :class:`~repro.errors.OptimizationError` at construction for
    asymmetric cost models or pruning requests — the registry factory
    routes those to the top-down driver before this class is built, so
    hitting the raise means the caller bypassed the factory.
    """

    name = "dpconv"

    #: Deadlines thread into this engine cooperatively (see
    #: :mod:`repro.optimizer.budget`); expiry salvages the settled
    #: layers instead of discarding them.
    supports_budget = True

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        enable_pruning: bool = False,
        budget: Optional[Budget] = None,
        native_backend: Optional[str] = None,
    ):
        if enable_pruning:
            raise OptimizationError(
                "dpconv settles every subset bottom-up; accumulated-cost "
                "pruning is a top-down capability (use tdmincutbranch)"
            )
        self.catalog = catalog
        self.graph = catalog.graph
        self.cost_model = cost_model if cost_model is not None else CoutCostModel()
        if not self.cost_model.is_symmetric():
            raise OptimizationError(
                "dpconv prices each unordered split once, which is only "
                f"exact for symmetric cost models; {self.cost_model.name!r} "
                "is asymmetric (use the top-down driver)"
            )
        self.builder = PlanBuilder(catalog, self.cost_model)
        self.budget = budget
        self.budget_expired = False
        self.salvage_report = None
        self.last_kernel: Optional[str] = None
        #: ``None``/``"auto"``/``"c"``/``"off"`` — selects the compiled
        #: C rung (``None`` means ``"auto"``; see
        #: :mod:`repro.optimizer.native`).
        from repro.optimizer.native import check_backend

        check_backend(native_backend)
        self.native_backend = native_backend
        #: Engine that actually ran the last ``optimize()``: ``"python"``
        #: (pure layered convolution) or ``"c"``.  Distinct from
        #: ``last_kernel`` (always ``"dpconv"`` here) so dashboards keyed
        #: on the algorithm tier keep working unchanged.
        self.last_backend: Optional[str] = None

    # ------------------------------------------------------------------

    def optimize(self) -> JoinTree:
        """Return an optimal bushy, cross-product-free join tree for G.

        Raises :class:`DisconnectedGraphError` when the query graph is
        disconnected (the search space excludes cross products).
        """
        graph = self.graph
        full = graph.all_vertices
        if not graph.is_connected(full):
            raise DisconnectedGraphError(
                "query graph is disconnected; the cross-product-free search "
                "space has no solution (join the components explicitly)"
            )
        self.last_kernel = "dpconv"
        self.last_backend = "python"
        if graph.n_vertices > 1:
            from repro.optimizer import native

            backend = native.resolve_backend(
                self.cost_model,
                requested=self.native_backend,
                n=graph.n_vertices,
            )
            try:
                if backend == "c":
                    # Hands the plan out itself; the memo is deferred.
                    self.last_backend = "c"
                    return native.run_c_convolution(self, full)
                self._convolve(full)
            except BudgetExpired:
                self.budget_expired = True
                return self._salvage(full)
        return self.builder.memo.extract_plan(full)

    def _salvage(self, root_set: int) -> JoinTree:
        """Complete the settled layers into a valid plan after expiry."""
        from repro.plan.salvage import salvage_plan

        plan, report = salvage_plan(
            self.builder.memo, self.catalog, root_set, self.cost_model
        )
        self.salvage_report = report
        return plan

    # ------------------------------------------------------------------

    def _convolve(self, full: int) -> None:
        """Fill the memo for every connected subset of ``full``.

        Sets are processed in ascending integer order — every proper
        subset of ``S`` is numerically smaller than ``S``, so this is a
        valid refinement of the size-layer order the convolution needs
        (all of layer ``k-1`` settles before any set of layer ``k`` is
        read).  All state is dense arrays indexed by bitmask:

        * ``nbr[S]`` — neighborhood, built incrementally from
          ``nbr[S minus lowbit]`` in O(1) per set;
        * ``conn[S]`` — connectivity, via closure from the lowest vertex
          (reads only ``nbr`` of already-settled proper subsets);
        * ``dp``/``card``/best-split arrays — the plan classes, flushed
          into the classic :class:`~repro.plan.memo.MemoTable` once at
          the end via ``bulk_load`` so extraction, validation, and
          explain need no dpconv-specific code.

        Split enumeration pins the lowest vertex of ``S`` on the left
        side (each unordered split visited once) and walks the remaining
        submasks descending via ``sub = (sub - 1) & rest``.  A split is
        a ccp iff both sides are connected — a crossing edge then exists
        because ``S`` itself is connected — so ``cost_evaluations``
        advances by exactly one per ccp, the same total a symmetric
        top-down run records.
        """
        graph = self.graph
        builder = self.builder
        memo = builder.memo
        combine = builder.estimator.combine
        cost_model = self.cost_model
        cout_fast = type(cost_model) is CoutCostModel
        join_cost = cost_model.join_cost
        inf = math.inf
        n = graph.n_vertices

        size = full + 1
        adj = [graph.neighbors_of_vertex(v) for v in range(n)]
        dp = [inf] * size
        card = [0.0] * size
        conn = bytearray(size)
        nbr = [0] * size
        best_left = [0] * size
        best_right = [0] * size
        impl = [None] * size

        # Leaves are pre-seeded in the MemoTable (cost 0, true cardinality);
        # adopt them so the flush rewrites identical values.
        for entry in memo.entries():
            leaf = entry.vertex_set
            dp[leaf] = entry.cost
            card[leaf] = entry.cardinality
            conn[leaf] = 1
            nbr[leaf] = adj[leaf.bit_length() - 1]
            best_left[leaf] = entry.best_left
            best_right[leaf] = entry.best_right
            impl[leaf] = entry.implementation

        budget = self.budget
        aborted = False
        priced_total = 0
        for s_set in range(3, size):
            low = s_set & -s_set
            if s_set == low:  # singleton, already seeded
                continue
            rest = s_set ^ low
            nbr[s_set] = nbr[rest] | adj[low.bit_length() - 1]
            # Connectivity: closure from the lowest vertex.  ``reach`` is
            # always a proper subset of ``s_set`` while growing, so its
            # neighborhood is already on file.
            reach = low
            while True:
                grown = (reach | nbr[reach]) & s_set
                if grown == reach:
                    break
                reach = grown
            if reach != s_set:
                continue
            conn[s_set] = 1
            if budget is not None:
                try:
                    # One node expansion per connected set about to be
                    # settled; a single set's submask scan is bounded
                    # (2^(|S|-1) tight iterations), so checking between
                    # sets bounds deadline overshoot to one scan.
                    budget.charge()
                except BudgetExpired:
                    conn[s_set] = 0  # the in-flight set never settled
                    aborted = True
                    break

            if cout_fast:
                # C_out: the local term ``card[S]`` is split-independent,
                # and float addition is monotone, so
                # ``min(card + subtree) == card + min(subtree)`` bitwise —
                # the hot loop compares subtree sums only.
                best = inf
                b_left = b_right = 0
                priced = 0
                sub = (rest - 1) & rest
                while True:
                    left = low | sub
                    right = s_set ^ left
                    if conn[left] and conn[right]:
                        priced += 1
                        total = dp[left] + dp[right]
                        if total < best:
                            best = total
                            b_left = left
                            b_right = right
                    if not sub:
                        break
                    sub = (sub - 1) & rest
                output_card = combine(
                    b_left, card[b_left], b_right, card[b_right]
                )
                card[s_set] = output_card
                dp[s_set] = output_card + best
                best_left[s_set] = b_left
                best_right[s_set] = b_right
                impl[s_set] = "join"
            else:
                # Generic symmetric model: the local cost depends on the
                # operand cardinalities, so price inside the loop (still
                # one orientation per unordered split).
                best = inf
                b_left = b_right = 0
                b_impl = None
                output_card = None
                priced = 0
                sub = (rest - 1) & rest
                while True:
                    left = low | sub
                    right = s_set ^ left
                    if conn[left] and conn[right]:
                        left_card = card[left]
                        right_card = card[right]
                        if output_card is None:
                            output_card = combine(
                                left, left_card, right, right_card
                            )
                        priced += 1
                        local, name = join_cost(
                            left_card, right_card, output_card
                        )
                        total = local + dp[left] + dp[right]
                        if total < best:
                            best = total
                            b_left = left
                            b_right = right
                            b_impl = name
                    if not sub:
                        break
                    sub = (sub - 1) & rest
                card[s_set] = output_card
                dp[s_set] = best
                best_left[s_set] = b_left
                best_right[s_set] = b_right
                impl[s_set] = b_impl
            priced_total += priced

        # One evaluation per ccp (symmetric) — same accounting as the
        # fast kernel; derived once instead of incremented per split.
        builder.cost_evaluations += priced_total
        memo.bulk_load(
            (s, card[s], dp[s], best_left[s], best_right[s], impl[s], True)
            for s in range(1, size)
            if conn[s]
        )
        if aborted:
            # Sets settle in ascending integer order, so everything
            # flushed above is final and extractable; mark the root as
            # unsolved (for the salvage report) and hand control to the
            # driver's salvage path.
            if not conn[full]:
                memo.bulk_load(((full, None, math.inf, 0, 0, None, False),))
            raise BudgetExpired(budget.reason or "budget expired")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"DPconvPlanGenerator(cost_model={self.cost_model.name}, "
            f"n={self.graph.n_vertices})"
        )
