"""From-first-principles reference implementations for the test suite.

Everything here is deliberately written *without* the library's bitset
machinery (plain frozensets, dict adjacency, textbook recursion) so that a
bug in the library cannot hide in a shared helper.  Slow but obviously
correct; used as the oracle for partitioners, counters and optimizers.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

Vertex = int
Edge = Tuple[int, int]


def adjacency_map(n_vertices: int, edges: Iterable[Edge]) -> Dict[int, Set[int]]:
    """Plain dict-of-sets adjacency."""
    adj: Dict[int, Set[int]] = {v: set() for v in range(n_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected_ref(vertices: FrozenSet[int], adj: Dict[int, Set[int]]) -> bool:
    """Reference connectivity test via BFS over frozensets."""
    if not vertices:
        return False
    seed = next(iter(vertices))
    seen = {seed}
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == set(vertices)


def connected_subsets_ref(
    n_vertices: int, edges: Iterable[Edge]
) -> List[FrozenSet[int]]:
    """All connected subsets (including singletons), by brute force."""
    adj = adjacency_map(n_vertices, edges)
    result = []
    vertices = list(range(n_vertices))
    for size in range(1, n_vertices + 1):
        for combo in itertools.combinations(vertices, size):
            s = frozenset(combo)
            if is_connected_ref(s, adj):
                result.append(s)
    return result


def ccps_for_set_ref(
    vertices: FrozenSet[int], n_vertices: int, edges: Iterable[Edge]
) -> Set[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """All symmetric-canonical ccps for one set, by brute force.

    Canonical form: the side *not* containing the set's maximum vertex
    first (the paper's max_index convention).
    """
    edges = list(edges)
    adj = adjacency_map(n_vertices, edges)
    top = max(vertices)
    result = set()
    members = sorted(vertices)
    for size in range(1, len(members)):
        for combo in itertools.combinations(members, size):
            s1 = frozenset(combo)
            if top in s1:
                continue
            s2 = vertices - s1
            if not is_connected_ref(s1, adj):
                continue
            if not is_connected_ref(s2, adj):
                continue
            adjacent = any(
                (u in s1 and v in s2) or (u in s2 and v in s1)
                for u, v in edges
            )
            if adjacent:
                result.add((s1, s2))
    return result


def count_ccps_ref(n_vertices: int, edges: Iterable[Edge]) -> int:
    """#ccp by generate-and-test: every split of every connected set.

    The independent oracle for :func:`repro.enumeration.counting.count_ccps`,
    which counts MinCutBranch's emissions instead.
    """
    edges = list(edges)
    return sum(
        len(ccps_for_set_ref(s, n_vertices, edges))
        for s in connected_subsets_ref(n_vertices, edges)
        if len(s) >= 2
    )


def optimal_cout_cost_ref(
    n_vertices: int,
    edges: Iterable[Edge],
    cardinalities: Dict[int, float],
    selectivities: Dict[Edge, float],
) -> float:
    """Optimal C_out cost by plain memoized recursion over frozensets."""
    edges = [tuple(sorted(e)) for e in edges]
    adj = adjacency_map(n_vertices, edges)
    sel = {tuple(sorted(k)): v for k, v in selectivities.items()}

    def cardinality(s: FrozenSet[int]) -> float:
        card = 1.0
        for v in s:
            card *= cardinalities[v]
        for (u, v) in edges:
            if u in s and v in s:
                card *= sel[(u, v)]
        return card

    memo: Dict[FrozenSet[int], float] = {}

    def best(s: FrozenSet[int]) -> float:
        if len(s) == 1:
            return 0.0
        if s in memo:
            return memo[s]
        members = sorted(s)
        best_cost = float("inf")
        for size in range(1, len(members)):
            for combo in itertools.combinations(members, size):
                s1 = frozenset(combo)
                s2 = s - s1
                if not is_connected_ref(s1, adj):
                    continue
                if not is_connected_ref(s2, adj):
                    continue
                if not any(
                    (u in s1 and v in s2) or (u in s2 and v in s1)
                    for (u, v) in edges
                ):
                    continue
                cost = cardinality(s) + best(s1) + best(s2)
                if cost < best_cost:
                    best_cost = cost
        memo[s] = best_cost
        return best_cost

    return best(frozenset(range(n_vertices)))


def bitset_to_frozenset(vertex_set: int) -> FrozenSet[int]:
    """Convert a library bitset into a plain frozenset of indices."""
    return frozenset(
        i for i in range(vertex_set.bit_length()) if vertex_set >> i & 1
    )


def frozenset_to_bitset(s: FrozenSet[int]) -> int:
    """Convert a frozenset of indices into a bitset."""
    result = 0
    for v in s:
        result |= 1 << v
    return result
