"""Search-space counting: #csg, #ccp and #ngt for arbitrary graphs.

These are the quantities of the paper's Table I:

* ``#csg`` — connected subgraphs (including singletons),
* ``#ccp`` — csg-cmp-pairs with symmetric pairs counted once
  (``|P_ccp_sym|``; the Ono & Lohman lower bound for join enumeration),
* ``#ngt`` — subsets generated by naive generate-and-test, i.e.
  ``sum(2^|S| - 2)`` over every connected ``S`` with ``|S| >= 2``.

Counting is done by exact enumeration: connected subgraphs come from the
enumerator of Moerkotte & Neumann (the csg half of DPccp), and each one's
ccps from the paper's MinCutBranch.  These routines double as an oracle
for the analytic formulas in :mod:`repro.analysis.formulas`; the tests
check them in turn against a generate-and-test reference.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro import bitset
from repro.enumeration.mincutbranch import MinCutBranch
from repro.graph.query_graph import QueryGraph

__all__ = [
    "enumerate_connected_subgraphs",
    "count_connected_subgraphs",
    "count_ccps",
    "count_ngt_subsets",
]


def _enumerate_csg_rec(
    graph: QueryGraph, vertex_set: int, excluded: int
) -> Iterator[int]:
    """EnumerateCsgRec: emit every connected enlargement of ``vertex_set``.

    Enlargement only uses neighbors outside ``excluded``; each emitted set
    appears exactly once across the whole recursion (Moerkotte & Neumann's
    construction).  Emission happens before recursion, and subsets appear
    in ascending submask order, so within one call subsets precede
    supersets.
    """
    neighbors = graph.neighborhood(vertex_set) & ~excluded
    if neighbors == 0:
        return
    for subset in bitset.iter_nonempty_subsets(neighbors):
        yield vertex_set | subset
    blocked = excluded | neighbors
    for subset in bitset.iter_nonempty_subsets(neighbors):
        yield from _enumerate_csg_rec(graph, vertex_set | subset, blocked)


def enumerate_connected_subgraphs(
    graph: QueryGraph, include_singletons: bool = True
) -> Iterator[int]:
    """Yield every connected subgraph of ``G`` exactly once, as bitsets.

    This is EnumerateCsg: vertices are processed from the highest index
    down, and the recursion may only add vertices with a higher index than
    the seed, which makes each connected set reachable along exactly one
    path.
    """
    n = graph.n_vertices
    for index in range(n - 1, -1, -1):
        seed = 1 << index
        if include_singletons:
            yield seed
        yield from _enumerate_csg_rec(graph, seed, bitset.set_below(index))


def count_connected_subgraphs(graph: QueryGraph) -> int:
    """Return #csg: connected subgraphs including singletons (Table I)."""
    return sum(1 for _ in enumerate_connected_subgraphs(graph))


def count_ccps(graph: QueryGraph, cap: Optional[int] = None) -> int:
    """Return #ccp = |P_ccp_sym|: symmetric pairs counted once (Table I).

    Runs MinCutBranch over every connected ``S`` with at least two
    vertices and counts what it emits, so the cost is O(#ccp) amortized
    (the paper's bound) rather than the ``2^|S|`` subsets per set that
    generate-and-test would test.  With a ``cap`` it stops at the set
    that takes the count past ``cap`` and returns ``cap + 1``: admission
    control's count without a C kernel (:mod:`repro.service.resilience`).
    """
    partitioner = MinCutBranch(graph)
    for vertex_set in enumerate_connected_subgraphs(
        graph, include_singletons=False
    ):
        partitioner.partitions_into(vertex_set, _ignore)
        if cap is not None and partitioner.stats.emitted > cap:
            return cap + 1
    return partitioner.stats.emitted


def _ignore(left: int, right: int) -> None:
    pass


def count_ngt_subsets(graph: QueryGraph) -> int:
    """Return #ngt: subsets generated by naive generate-and-test (Table I).

    Naive partitioning enumerates ``2^|S| - 2`` subsets for every connected
    set ``S`` with two or more vertices that the top-down driver visits.
    """
    total = 0
    for vertex_set in enumerate_connected_subgraphs(graph):
        size = bitset.popcount(vertex_set)
        if size >= 2:
            total += (1 << size) - 2
    return total
