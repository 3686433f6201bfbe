"""Relations, join selectivities, and the statistics catalog.

A :class:`Catalog` binds a :class:`~repro.graph.query_graph.QueryGraph` to
the numbers the cost model needs: one cardinality per relation and one
selectivity per join edge.  The standard System-R style independence
assumption gives the cardinality of an intermediate result over a relation
set ``S`` as::

    |S| = prod(card(R) for R in S) * prod(sel(e) for edges e inside S)

which the optimizers compute incrementally (cardinality estimation happens
once per connected subgraph — the paper's "Fortunate Observation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import bitset
from repro.errors import CatalogError
from repro.graph.query_graph import QueryGraph

__all__ = ["Relation", "Catalog"]


@dataclass(frozen=True)
class Relation:
    """A base relation: a name and its (estimated) row count."""

    name: str
    cardinality: float

    def __post_init__(self) -> None:
        if self.cardinality <= 0:
            raise CatalogError(
                f"relation {self.name!r} must have positive cardinality, "
                f"got {self.cardinality}"
            )


class Catalog:
    """Statistics for one query: per-relation cardinalities, per-edge selectivities.

    Parameters
    ----------
    graph:
        The query graph whose vertices/edges the statistics describe.
    relations:
        One :class:`Relation` per vertex, in vertex order.
    selectivities:
        Mapping from edge ``(u, v)`` (any orientation) to a selectivity in
        ``(0, 1]``.  Every graph edge must be covered.
    """

    __slots__ = ("graph", "relations", "_selectivity", "_vertex_selectivity")

    def __init__(
        self,
        graph: QueryGraph,
        relations: Iterable[Relation],
        selectivities: Mapping[Tuple[int, int], float],
    ):
        self.graph = graph
        self.relations: Tuple[Relation, ...] = tuple(relations)
        if len(self.relations) != graph.n_vertices:
            raise CatalogError(
                f"expected {graph.n_vertices} relations, got {len(self.relations)}"
            )
        self._selectivity: Dict[Tuple[int, int], float] = {}
        for (u, v), sel in selectivities.items():
            key = (min(u, v), max(u, v))
            if key not in set(graph.edges):
                raise CatalogError(f"selectivity given for non-edge {key}")
            if not 0.0 < sel <= 1.0:
                raise CatalogError(
                    f"selectivity for edge {key} must be in (0, 1], got {sel}"
                )
            if key in self._selectivity and self._selectivity[key] != sel:
                raise CatalogError(f"conflicting selectivities for edge {key}")
            self._selectivity[key] = sel
        missing = [e for e in graph.edges if e not in self._selectivity]
        if missing:
            raise CatalogError(f"edges without selectivity: {missing}")
        # Per-vertex view used by the incremental estimator: for vertex v,
        # a list of (neighbor_bit, selectivity) pairs.
        self._vertex_selectivity: List[List[Tuple[int, float]]] = [
            [] for _ in range(graph.n_vertices)
        ]
        for (u, v), sel in self._selectivity.items():
            self._vertex_selectivity[u].append((1 << v, sel))
            self._vertex_selectivity[v].append((1 << u, sel))

    # ------------------------------------------------------------------

    def cardinality(self, vertex: int) -> float:
        """Return the base cardinality of relation ``R_vertex``."""
        return self.relations[vertex].cardinality

    def selectivity(self, u: int, v: int) -> float:
        """Return the selectivity of the join edge between ``u`` and ``v``."""
        key = (min(u, v), max(u, v))
        try:
            return self._selectivity[key]
        except KeyError:
            raise CatalogError(f"no join edge between {u} and {v}") from None

    def selectivity_between(self, left: int, right: int) -> float:
        """Return the product of selectivities of all edges crossing the cut.

        ``left`` and ``right`` are disjoint bitsets; the result is the factor
        by which joining the two intermediate results shrinks the Cartesian
        product, under the independence assumption.  The crossing edges are
        the same set seen from either side, so the scan walks the smaller
        side — this runs once per connected subgraph on the optimizers' hot
        path (the paper's "fortunate observation" makes it the expensive
        half of pricing) and large/small splits are the common case.
        """
        if bitset.popcount(left) > bitset.popcount(right):
            left, right = right, left
        product = 1.0
        per_vertex = self._vertex_selectivity
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            for neighbor_bit, sel in per_vertex[low.bit_length() - 1]:
                if neighbor_bit & right:
                    product *= sel
        return product

    def estimate(self, vertex_set: int) -> float:
        """Estimate the result cardinality for the relation set ``S``.

        Full (non-incremental) product form; the optimizers use the
        incremental ``selectivity_between`` path and memoize per csg.
        Only if that product overflows to ``inf`` or underflows to 0 (a
        uniform chain-103 passes 1e309 on the way to 1e105) is it redone
        with each selectivity applied once both endpoints are in.
        """
        card = 1.0
        for vertex in bitset.iter_indices(vertex_set):
            card *= self.relations[vertex].cardinality
        for (u, v) in self.graph.edges:
            if vertex_set >> u & 1 and vertex_set >> v & 1:
                card *= self._selectivity[(u, v)]
        if 0.0 < card < math.inf:
            return card
        card, seen = 1.0, 0
        for vertex in bitset.iter_indices(vertex_set):
            card *= self.relations[vertex].cardinality
            for neighbor_bit, sel in self._vertex_selectivity[vertex]:
                if neighbor_bit & seen:
                    card *= sel
            seen |= 1 << vertex
        return card

    def relation_names(self) -> List[str]:
        """Return the relation names in vertex order."""
        return [relation.name for relation in self.relations]

    def __repr__(self) -> str:
        return (
            f"Catalog(n_relations={len(self.relations)}, "
            f"n_edges={len(self._selectivity)})"
        )
