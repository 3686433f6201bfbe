"""DPccp: bottom-up dynamic programming over csg-cmp-pairs.

Moerkotte & Neumann's algorithm (VLDB 2006) — the paper's bottom-up
state of the art and the normalization baseline of Tables IV and V.  It
enumerates every csg-cmp-pair exactly once in O(1) amortized time per
pair:

* ``EnumerateCsg`` emits every connected subgraph exactly once, seeded
  from each vertex in descending index order and only ever growing with
  higher-indexed vertices (the prefix sets ``B_i`` block the rest).
* ``EnumerateCmp`` emits, for a given csg ``S1``, every connected ``S2``
  disjoint from and adjacent to ``S1`` whose minimum index exceeds
  ``min(S1)`` — which selects exactly one representative of every
  symmetric pair.

The emission order is DP-compatible: within a seed's group subsets
precede supersets (submask enumeration is numerically ascending and
recursion only grows sets), and complements always live in groups that
were finished earlier, so both operand plans exist whenever a pair is
processed.  The test suite asserts this order property explicitly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cout import CoutCostModel
from repro.enumeration.counting import (
    _enumerate_csg_rec,
    enumerate_connected_subgraphs,
)
from repro.errors import DisconnectedGraphError
from repro.graph.query_graph import QueryGraph
from repro.plan.builder import PlanBuilder
from repro.plan.jointree import JoinTree

__all__ = ["DPccp", "enumerate_csg", "enumerate_cmp", "enumerate_csg_cmp_pairs"]


def enumerate_csg(graph: QueryGraph) -> Iterator[int]:
    """EnumerateCsg: every connected subgraph of ``G``, exactly once.

    Singletons included; groups by seed vertex in descending index order.
    The recursion is the counting layer's
    (:func:`repro.enumeration.counting.enumerate_connected_subgraphs`).
    """
    return enumerate_connected_subgraphs(graph)


def enumerate_cmp(graph: QueryGraph, csg: int) -> Iterator[int]:
    """EnumerateCmp: every complement forming a ccp with ``csg``.

    Every emitted set is connected, disjoint from ``csg``, adjacent to it,
    and has all indices above ``min(csg)`` — yielding each symmetric pair
    once across the whole enumeration.
    """
    lowest = csg & -csg
    excluded = (lowest | (lowest - 1)) | csg  # B_min(S1) ∪ S1
    neighbors = graph.neighborhood(csg) & ~excluded
    if neighbors == 0:
        return
    # Seeds in descending index order, each blocked from re-creating sets
    # reachable from earlier (higher) seeds via B_i ∩ N.
    for index in reversed(bitset.to_indices(neighbors)):
        seed = 1 << index
        yield seed
        yield from _enumerate_csg_rec(
            graph, seed, excluded | (bitset.set_below(index) & neighbors)
        )


def enumerate_csg_cmp_pairs(graph: QueryGraph) -> Iterator[Tuple[int, int]]:
    """Yield every csg-cmp-pair of ``G`` exactly once (symmetric pairs once).

    Pair orientation: the side containing the lower minimum index first.
    """
    for csg in enumerate_csg(graph):
        for cmp_set in enumerate_cmp(graph, csg):
            yield (csg, cmp_set)


class DPccp:
    """Bottom-up plan generation driven by csg-cmp-pair enumeration."""

    name = "dpccp"

    def __init__(self, catalog: Catalog, cost_model: Optional[CostModel] = None):
        self.catalog = catalog
        self.graph = catalog.graph
        self.cost_model = cost_model if cost_model is not None else CoutCostModel()
        self.builder = PlanBuilder(catalog, self.cost_model)
        self.ccps_processed = 0

    def optimize(self) -> JoinTree:
        """Return an optimal bushy, cross-product-free join tree for G."""
        graph = self.graph
        all_vertices = graph.all_vertices
        if not graph.is_connected(all_vertices):
            raise DisconnectedGraphError(
                "query graph is disconnected; the cross-product-free search "
                "space has no solution"
            )
        build = self.builder.build_trees
        for left_set, right_set in enumerate_csg_cmp_pairs(graph):
            build(left_set | right_set, left_set, right_set)
            self.ccps_processed += 1
        return self.builder.memo.extract_plan(all_vertices)

    def __repr__(self) -> str:
        return f"DPccp(n={self.graph.n_vertices}, cost_model={self.cost_model.name})"
