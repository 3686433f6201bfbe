"""Partial-memo salvage: finish an interrupted exact search into a plan.

The paper's top-down enumeration is demand-driven and memoized, so at
any instant the memo already holds the best-known plan for every
*finished* subproblem — unlike bottom-up DP layers, an interrupted
TDPGSUB run is salvageable.  :func:`salvage_plan` turns such a
partially-filled :class:`~repro.plan.memo.MemoTable` into a complete,
valid join tree:

1. **Cover** the root relation set with solved memo entries, greedily by
   descending set size (ties: cheaper plan first).  Base relations are
   pre-seeded as solved, so the cover always completes.
2. **Extract** the winning subplan for each cover set from the memo.
3. **Merge** the resulting forest bottom-up in GOO order — repeatedly
   join the *connected* pair with the smallest intermediate result,
   pricing each glue join under the request's cost model (both
   orientations for asymmetric models, mirroring
   :class:`~repro.plan.builder.PlanBuilder`).
4. **Floor** the answer at pure GOO: the full-query greedy plan is
   built independently and repriced under the same cost model, and the
   cheaper of the two is returned.  This makes the anytime contract a
   hard guarantee — a salvaged plan never costs more than the heuristic
   rung it replaces — even in the rare corner where gluing exact
   subplans loses to a globally greedy order.

The accompanying report quantifies how close to optimal the salvage got:
``lower_bound`` is the admissible bound branch-and-bound pruning uses
(the estimated root result cardinality — no plan can cost less under
cost models whose final join at least materializes its output), and
``memo_solved_fraction`` is the share of the subproblems the exact
search had scheduled -- memo rows plus the ``unfinished`` sets left on
its work stack -- that it finished before the budget expired.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Tuple

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.errors import OptimizationError
from repro.heuristics.goo import greedy_operator_ordering
from repro.plan.jointree import JoinTree
from repro.plan.memo import MemoTable

__all__ = ["reprice", "salvage_plan"]


def reprice(plan: JoinTree, cost_model: CostModel) -> JoinTree:
    """Rebuild ``plan`` with costs accumulated under ``cost_model``.

    Cardinalities are kept (they are catalog estimates either way); only
    the cost annotations change.  Iterative post-order — heuristic plans
    for chain queries are as deep as the query, so recursion would trip
    the interpreter limit long before the search layer does.
    """
    symmetric = cost_model.is_symmetric()
    rebuilt: Dict[int, JoinTree] = {}
    stack: List[JoinTree] = [plan]
    while stack:
        node = stack.pop()
        if node.vertex_set in rebuilt:
            continue
        if node.is_leaf:
            rebuilt[node.vertex_set] = node
            continue
        left = rebuilt.get(node.left.vertex_set)
        right = rebuilt.get(node.right.vertex_set)
        if left is None or right is None:
            stack.append(node)
            if right is None:
                stack.append(node.right)
            if left is None:
                stack.append(node.left)
            continue
        local, impl = cost_model.join_cost(
            left.cardinality, right.cardinality, node.cardinality
        )
        if not symmetric:
            mirrored, impl_rl = cost_model.join_cost(
                right.cardinality, left.cardinality, node.cardinality
            )
            if mirrored < local:
                local, impl = mirrored, impl_rl
                left, right = right, left
        rebuilt[node.vertex_set] = JoinTree(
            vertex_set=node.vertex_set,
            cardinality=node.cardinality,
            cost=local + left.cost + right.cost,
            left=left,
            right=right,
            implementation=impl,
        )
    return rebuilt[plan.vertex_set]


def _glue(
    left: JoinTree, right: JoinTree, cardinality: float, cost_model: CostModel
) -> JoinTree:
    """Join two salvaged subtrees, priced like ``PlanBuilder.build_trees``."""
    local, impl = cost_model.join_cost(
        left.cardinality, right.cardinality, cardinality
    )
    if not cost_model.is_symmetric():
        mirrored, impl_rl = cost_model.join_cost(
            right.cardinality, left.cardinality, cardinality
        )
        if mirrored < local:
            local, impl = mirrored, impl_rl
            left, right = right, left
    return JoinTree(
        vertex_set=left.vertex_set | right.vertex_set,
        cardinality=cardinality,
        cost=local + left.cost + right.cost,
        left=left,
        right=right,
        implementation=impl,
    )


def _merge_forest(
    forest: List[JoinTree], catalog: Catalog, cost_model: CostModel
) -> JoinTree:
    """GOO-order merge of disjoint subplans into one tree.

    The quotient graph over the parts of a connected query is itself
    connected, so a joinable (edge-crossing) pair always exists until
    one tree remains.
    """
    graph = catalog.graph
    cards: Dict[int, float] = {}

    def union_card(left: JoinTree, right: JoinTree) -> float:
        union = left.vertex_set | right.vertex_set
        value = cards.get(union)
        if value is None:
            value = (
                left.cardinality
                * right.cardinality
                * catalog.selectivity_between(left.vertex_set, right.vertex_set)
            )
            cards[union] = value
        return value

    trees = list(forest)
    while len(trees) > 1:
        best = None
        best_card = math.inf
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                if not graph.are_connected_sets(
                    trees[i].vertex_set, trees[j].vertex_set
                ):
                    continue
                card = union_card(trees[i], trees[j])
                if card < best_card:
                    best_card = card
                    best = (i, j)
        if best is None:
            raise OptimizationError(
                "salvage cover of a connected query has no joinable pair "
                "(graph bug?)"
            )
        i, j = best
        joined = _glue(trees[i], trees[j], best_card, cost_model)
        trees = [t for k, t in enumerate(trees) if k not in (i, j)] + [joined]
    return trees[0]


def salvage_plan(
    memo: MemoTable,
    catalog: Catalog,
    root_set: int,
    cost_model: CostModel,
    unfinished: int = 0,
) -> Tuple[JoinTree, Dict[str, object]]:
    """Complete a partially-filled memo into a valid plan for ``root_set``.

    Returns ``(plan, report)``.  The plan covers every relation exactly
    once, contains no cross products, and costs at most the pure-GOO
    plan for the same catalog under the same cost model.  ``unfinished``
    counts sets the search scheduled but neither finished nor wrote to
    the memo (the top-down kernels keep them off it).  The report is a
    JSON-safe dict::

        salvaged_cost         cost of the returned plan
        goo_cost              the pure-GOO floor it was compared against
        lower_bound           admissible optimum lower bound (root card)
        optimality_ratio      salvaged_cost / lower_bound (None if lb=0)
        memo_solved_fraction  solved entries / scheduled entries
        solved_entries, memo_entries, cover_sets, largest_subplan
        source                "memo" (salvage won) or "goo" (floor won)
    """
    solved = [
        entry
        for entry in memo.entries()
        if entry.cost != math.inf and entry.vertex_set & ~root_set == 0
    ]
    total_entries = len(memo) + unfinished

    root_entry = memo.lookup(root_set)
    if root_entry is not None and root_entry.cost != math.inf:
        candidate = memo.extract_plan(root_set)
        cover = [root_set]
    else:
        # Greedy disjoint cover by descending subplan size; singletons
        # are always solved, so the cover terminates.
        # Two stable sorts (cost, then size descending) order by
        # (-size, cost) without building a key tuple per entry: after a
        # C-speed run the memo holds thousands of solved sets.
        remaining = root_set
        cover = []
        by_size = sorted(solved, key=attrgetter("cost"))
        popcount = bitset.popcount
        by_size.sort(key=lambda e: popcount(e.vertex_set), reverse=True)
        for entry in by_size:
            if entry.vertex_set & ~remaining:
                continue
            cover.append(entry.vertex_set)
            remaining ^= entry.vertex_set
            if not remaining:
                break
        if remaining:
            raise OptimizationError(
                f"memo has no plans for {bitset.format_set(remaining)}; "
                "cannot salvage (leaves missing from the memo table?)"
            )
        forest = [memo.extract_plan(s) for s in cover]
        candidate = _merge_forest(forest, catalog, cost_model)

    goo = reprice(greedy_operator_ordering(catalog), cost_model)
    if candidate.cost <= goo.cost:
        plan, source = candidate, "memo"
    else:
        plan, source = goo, "goo"

    if root_entry is not None and root_entry.cardinality is not None:
        lower_bound = root_entry.cardinality
    else:
        lower_bound = catalog.estimate(root_set)
    solved_count = len(solved)
    report: Dict[str, object] = {
        "salvaged_cost": plan.cost,
        "goo_cost": goo.cost,
        "lower_bound": lower_bound,
        "optimality_ratio": (plan.cost / lower_bound) if lower_bound > 0 else None,
        "memo_solved_fraction": (
            solved_count / total_entries if total_entries else 0.0
        ),
        "solved_entries": solved_count,
        "memo_entries": total_entries,
        "cover_sets": len(cover),
        "largest_subplan": max(bitset.popcount(s) for s in cover),
        "source": source,
    }
    return plan, report
