"""Random query graph generation per the paper's workload generator.

Sec. IV-A: "it generates chain, star, cycle, and clique queries as well as
random acyclic and cyclic graphs.  For the latter, edges are randomly added
by selecting two relation's indices using uniformly distributed random
numbers."

Random acyclic graphs are uniform random trees (random Pruefer sequences).
Random cyclic graphs start from a random spanning tree (to guarantee
connectivity, which the cross-product-free search space requires) and then
add extra uniformly random edges until the requested edge count is reached.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import GraphError
from repro.graph.query_graph import QueryGraph

__all__ = [
    "random_acyclic_graph",
    "random_cyclic_graph",
    "random_tree_edges",
]


def _rng(seed: Optional[int], rng: Optional[random.Random]) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed)


def random_tree_edges(
    n_vertices: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Return the edges of a uniformly random labelled tree.

    Uses a random Pruefer sequence, which is in bijection with labelled
    trees, so every spanning tree shape is equally likely.
    """
    if n_vertices < 1:
        raise GraphError("need at least one vertex")
    if n_vertices == 1:
        return []
    if n_vertices == 2:
        return [(0, 1)]
    pruefer = [rng.randrange(n_vertices) for _ in range(n_vertices - 2)]
    degree = [1] * n_vertices
    for v in pruefer:
        degree[v] += 1
    edges: List[Tuple[int, int]] = []
    # Classic decoding: repeatedly attach the smallest leaf to the next
    # sequence element.  A simple heap-free O(n^2) scan is fine at the
    # sizes used for join ordering (n <= ~30).
    used = [False] * n_vertices
    for v in pruefer:
        for leaf in range(n_vertices):
            if degree[leaf] == 1 and not used[leaf]:
                edges.append((min(leaf, v), max(leaf, v)))
                used[leaf] = True
                degree[v] -= 1
                degree[leaf] -= 1
                break
    tail = [v for v in range(n_vertices) if not used[v] and degree[v] == 1]
    if len(tail) != 2:
        raise GraphError("internal error decoding Pruefer sequence")
    edges.append((min(tail), max(tail)))
    return edges


def random_acyclic_graph(
    n_vertices: int,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    exclude_chain_and_star: bool = False,
    max_attempts: int = 1000,
) -> QueryGraph:
    """Generate a random connected acyclic query graph (a random tree).

    With ``exclude_chain_and_star=True`` the generator resamples until the
    tree is neither a chain nor a star, matching the workload of the paper's
    Figure 12 ("random acyclic queries that are neither chain nor star").
    """
    generator = _rng(seed, rng)
    for _ in range(max_attempts):
        graph = QueryGraph(n_vertices, random_tree_edges(n_vertices, generator))
        if not exclude_chain_and_star:
            return graph
        if graph.shape_name() == "tree":
            return graph
    raise GraphError(
        f"could not sample a non-chain non-star tree with {n_vertices} "
        f"vertices in {max_attempts} attempts (too few vertices?)"
    )


def random_cyclic_graph(
    n_vertices: int,
    n_edges: int,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> QueryGraph:
    """Generate a random connected cyclic query graph with ``n_edges`` edges.

    A random spanning tree guarantees connectivity; the remaining
    ``n_edges - (n_vertices - 1)`` edges are drawn uniformly from the
    missing vertex pairs, per the paper's generator.
    """
    if n_vertices < 3:
        raise GraphError("cyclic graphs need at least 3 vertices")
    min_edges = n_vertices - 1
    max_edges = n_vertices * (n_vertices - 1) // 2
    if not min_edges <= n_edges <= max_edges:
        raise GraphError(
            f"edge count {n_edges} out of range [{min_edges}, {max_edges}] "
            f"for {n_vertices} vertices"
        )
    generator = _rng(seed, rng)
    edges = set(random_tree_edges(n_vertices, generator))
    missing = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if (u, v) not in edges
    ]
    generator.shuffle(missing)
    extra_needed = n_edges - len(edges)
    edges.update(missing[:extra_needed])
    return QueryGraph(n_vertices, sorted(edges))
