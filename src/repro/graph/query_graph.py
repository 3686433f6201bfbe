"""Undirected query graphs over bitset vertex sets.

A :class:`QueryGraph` is the structural half of a join-ordering problem: its
vertices are the relations referenced by the query and its edges are join
predicates.  Adjacency is stored as one bitmask per vertex, so the
neighborhood of a whole set (Def. 2.3 of the paper) is a few OR/AND-NOT
operations, and connectivity tests are bitmask BFS.

The graph is immutable after construction; all enumeration algorithms in
:mod:`repro.enumeration` and :mod:`repro.optimizer` operate on this class.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro import bitset
from repro.errors import DisconnectedGraphError, GraphError

__all__ = ["QueryGraph"]


class QueryGraph:
    """An undirected graph ``G = (V, E)`` with ``V = {0, ..., n-1}``.

    Parameters
    ----------
    n_vertices:
        Number of relations.  Vertex ``i`` stands for relation ``R_i``.
    edges:
        Iterable of ``(u, v)`` index pairs.  Parallel edges collapse,
        self-loops are rejected.

    Examples
    --------
    >>> g = QueryGraph(3, [(0, 1), (1, 2)])
    >>> g.is_connected(g.all_vertices)
    True
    >>> bitset.to_indices(g.neighborhood(bitset.set_of(1)))
    [0, 2]
    """

    __slots__ = ("_n", "_adjacency", "_edges", "_all_vertices", "_canonical")

    def __init__(self, n_vertices: int, edges: Iterable[Tuple[int, int]]):
        if n_vertices <= 0:
            raise GraphError(f"need at least one vertex, got {n_vertices}")
        self._n = n_vertices
        self._canonical = None  # lazily computed (order, edges, signature)
        self._adjacency: List[int] = [0] * n_vertices
        edge_list: List[Tuple[int, int]] = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise GraphError(
                    f"edge ({u}, {v}) out of range for {n_vertices} vertices"
                )
            if u == v:
                raise GraphError(f"self-loop on vertex {u} is not a join edge")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edge_list.append(key)
            self._adjacency[u] |= 1 << v
            self._adjacency[v] |= 1 << u
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(edge_list))
        self._all_vertices = (1 << n_vertices) - 1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices (relations)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of (undirected, deduplicated) edges."""
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as sorted ``(min, max)`` index pairs."""
        return self._edges

    @property
    def all_vertices(self) -> int:
        """The full vertex set ``V`` as a bitset."""
        return self._all_vertices

    def neighbors_of_vertex(self, vertex: int) -> int:
        """Return the adjacency bitmask of one vertex index."""
        return self._adjacency[vertex]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True iff there is a join edge between vertices u and v."""
        return self._adjacency[u] >> v & 1 == 1

    # ------------------------------------------------------------------
    # Set-level operations (the core primitives of all partitioners)
    # ------------------------------------------------------------------

    def neighborhood(self, vertex_set: int) -> int:
        """Return ``N(S)`` per Def. 2.3: neighbors of S outside S."""
        if vertex_set & (vertex_set - 1) == 0:
            # Singleton (or empty) fast path: the partitioners call this
            # with |S| = 1 in their hottest loops.
            if vertex_set == 0:
                return 0
            return self._adjacency[vertex_set.bit_length() - 1]
        result = 0
        remaining = vertex_set
        adjacency = self._adjacency
        while remaining:
            low = remaining & -remaining
            result |= adjacency[low.bit_length() - 1]
            remaining ^= low
        return result & ~vertex_set

    def neighborhood_within(self, vertex_set: int, universe: int) -> int:
        """Return ``N(S)`` restricted to ``universe`` (i.e. ``N(S) & universe``)."""
        return self.neighborhood(vertex_set) & universe

    def connected_component(self, seed: int, universe: int) -> int:
        """Return the connected component of ``seed`` within ``universe``.

        ``seed`` is a single-bit set contained in ``universe``.  Expansion is
        a frontier BFS on bitmasks: each step ORs the adjacency of the whole
        frontier, taking its vertices low bit first.
        """
        adjacency = self._adjacency
        component = frontier = seed
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & universe & ~component
            component |= frontier
        return component

    def is_connected(self, vertex_set: int) -> bool:
        """Return True iff the induced subgraph ``G|S`` is connected.

        The empty set is not connected by convention; a singleton is.
        """
        if vertex_set == 0:
            return False
        seed = vertex_set & -vertex_set
        return self.connected_component(seed, vertex_set) == vertex_set

    def connected_components(self, vertex_set: int) -> List[int]:
        """Return the connected components of ``G|S`` as bitsets, ascending."""
        components: List[int] = []
        remaining = vertex_set
        while remaining:
            seed = remaining & -remaining
            component = self.connected_component(seed, remaining)
            components.append(component)
            remaining &= ~component
        return components

    def are_connected_sets(self, left: int, right: int) -> bool:
        """Return True iff some edge joins a vertex of ``left`` to ``right``.

        This is the fourth ccp condition of Def. 2.1.
        """
        return self.neighborhood(left) & right != 0

    def induced_edges(self, vertex_set: int) -> List[Tuple[int, int]]:
        """Return the edges of the induced subgraph ``G|S``."""
        return [
            (u, v)
            for (u, v) in self._edges
            if vertex_set >> u & 1 and vertex_set >> v & 1
        ]

    def edges_between(self, left: int, right: int) -> List[Tuple[int, int]]:
        """Return all edges with one endpoint in ``left``, the other in ``right``."""
        result = []
        for (u, v) in self._edges:
            u_bit, v_bit = 1 << u, 1 << v
            if (u_bit & left and v_bit & right) or (u_bit & right and v_bit & left):
                result.append((u, v))
        return result

    # ------------------------------------------------------------------
    # Validation / classification helpers
    # ------------------------------------------------------------------

    def require_connected(self, vertex_set: int) -> None:
        """Raise :class:`DisconnectedGraphError` unless ``G|S`` is connected."""
        if not self.is_connected(vertex_set):
            raise DisconnectedGraphError(
                f"vertex set {bitset.format_set(vertex_set)} does not induce "
                "a connected subgraph"
            )

    def is_acyclic(self) -> bool:
        """Return True iff the graph is a forest (|E| = |V| - #components)."""
        n_components = len(self.connected_components(self._all_vertices))
        return self.n_edges == self._n - n_components

    def degree(self, vertex: int) -> int:
        """Return the degree of one vertex."""
        return bitset.popcount(self._adjacency[vertex])

    def degree_sequence(self) -> List[int]:
        """Return the sorted degree sequence (ascending)."""
        return sorted(self.degree(v) for v in range(self._n))

    def shape_name(self) -> str:
        """Classify the graph as chain/star/cycle/clique/tree/cyclic.

        Used by the workload generator and reports; best-effort labels for
        the paper's fixed shapes.
        """
        n, m = self._n, self.n_edges
        if not self.is_connected(self._all_vertices):
            return "disconnected"
        if n == 1:
            return "single"
        degrees = self.degree_sequence()
        if m == n - 1:
            if degrees[-1] <= 2:
                return "chain"
            if degrees[-1] == n - 1 and degrees[-2] == 1:
                return "star"
            return "tree"
        if m == n and degrees == [2] * n:
            return "cycle"
        if m == n * (n - 1) // 2:
            return "clique"
        return "cyclic"

    # ------------------------------------------------------------------
    # Canonical form (shape identity for caches and dedup)
    # ------------------------------------------------------------------

    def canonical_form(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """Return ``(order, edges)`` of the structure-only canonical labeling.

        ``order[p]`` is the vertex placed at canonical position ``p``;
        ``edges`` is the edge list rewritten in canonical positions.
        Isomorphic graphs share ``edges``; see :mod:`repro.graph.canonical`
        for the degree-refinement scheme.  The result is cached on the
        (immutable) graph.
        """
        if self._canonical is None:
            from repro.graph.canonical import canonical_form, signature_of_form

            order, edges = canonical_form(self)
            self._canonical = (order, edges, signature_of_form(self._n, edges))
        return self._canonical[0], self._canonical[1]

    def canonical_signature(self) -> str:
        """Return a hex digest equal for all isomorphic relabelings.

        The structural half of the service layer's plan-cache key; two
        graphs with the same signature have identical canonical edge
        lists (up to hash collision).
        """
        self.canonical_form()
        return self._canonical[2]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"QueryGraph(n_vertices={self._n}, edges={list(self._edges)!r})"

    def relabelled(self, permutation: Sequence[int]) -> "QueryGraph":
        """Return an isomorphic graph with vertex ``i`` renamed ``permutation[i]``.

        Useful for testing start-vertex independence of the partitioners.
        """
        if sorted(permutation) != list(range(self._n)):
            raise GraphError("permutation must be a bijection on vertex indices")
        return QueryGraph(
            self._n,
            [(permutation[u], permutation[v]) for (u, v) in self._edges],
        )

    def iter_vertices(self) -> Iterator[int]:
        """Yield all vertex indices in ascending order."""
        return iter(range(self._n))
