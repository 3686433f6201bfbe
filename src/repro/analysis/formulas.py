"""Closed-form search-space sizes and complexity predictions.

Table I quantities (Ono & Lohman, VLDB 1990; Moerkotte & Neumann,
VLDB 2006) for the four fixed shapes, plus the per-ccp work predictions of
the paper's complexity analysis (Sec. III-F for MinCutBranch, Appendix B
for MinCutLazy).  The enumeration-based counters in
:mod:`repro.enumeration.counting` cross-validate all of these for small
``n`` in the test suite; the benchmark for Table I uses these formulas at
``n = 20`` where enumeration would be infeasible for cliques.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import GraphError

if TYPE_CHECKING:
    from repro.graph.query_graph import QueryGraph

__all__ = [
    "csg_count",
    "ccp_count",
    "ccp_estimate",
    "ccp_predict",
    "ngt_count",
    "table1_row",
    "mcb_counters_chain",
    "mcb_counters_cycle",
    "mcb_clique_total_work",
    "mcl_clique_total_work",
    "mcl_per_ccp_clique",
    "mcb_per_ccp_clique",
]

_SHAPES = ("chain", "star", "cycle", "clique")


def _require_shape(shape: str) -> None:
    if shape not in _SHAPES:
        raise GraphError(f"unknown shape {shape!r}; expected one of {_SHAPES}")


def csg_count(shape: str, n: int) -> int:
    """#csg: connected subgraphs, singletons included (Table I).

    * chain:  n(n+1)/2           — one per (start, length)
    * star:   2^(n-1) + n - 1    — hub subsets plus lone satellites
    * cycle:  n^2 - n + 1        — n arcs per length 1..n-1, plus V itself
    * clique: 2^n - 1            — every non-empty subset
    """
    _require_shape(shape)
    if n < 1:
        raise GraphError("n must be positive")
    if shape == "chain":
        return n * (n + 1) // 2
    if shape == "star":
        return 2 ** (n - 1) + n - 1 if n > 1 else 1
    if shape == "cycle":
        return n * n - n + 1
    return 2 ** n - 1


def ccp_count(shape: str, n: int) -> int:
    """#ccp = |P_ccp_sym|: symmetric csg-cmp-pairs counted once (Table I).

    * chain:  (n^3 - n)/6
    * star:   (n - 1) * 2^(n-2)
    * cycle:  n(n-1)^2 / 2
    * clique: (3^n - 2^(n+1) + 1)/2

    All four reproduce the paper's Table I exactly (20/165/560/1330 for
    chains, 32/2304/114688/4980736 for stars, 40/405/1470/3610 for
    cycles, 90/28501/7141686/1742343625 for cliques at n=5,10,15,20) and
    are cross-checked against exhaustive enumeration in the tests.
    """
    _require_shape(shape)
    if n < 1:
        raise GraphError("n must be positive")
    if shape == "chain":
        return (n ** 3 - n) // 6
    if shape == "star":
        return (n - 1) * 2 ** (n - 2) if n > 1 else 0
    if shape == "cycle":
        # Verified against Table I: 40 (n=5), 405 (n=10), 1470 (n=15),
        # 3610 (n=20): (n^3 - 2n^2 + n)/2 = n(n-1)^2/2.
        return n * (n - 1) ** 2 // 2
    return (3 ** n - 2 ** (n + 1) + 1) // 2


def ngt_count(shape: str, n: int) -> int:
    """#ngt: subsets generated by naive generate-and-test (Table I).

    ``sum over connected S with |S| >= 2 of (2^|S| - 2)``, evaluated in
    closed form per shape.
    """
    _require_shape(shape)
    if n < 1:
        raise GraphError("n must be positive")
    if shape == "chain":
        # Chains of length k: n - k + 1 of them, k = 2..n.
        return sum((n - k + 1) * (2 ** k - 2) for k in range(2, n + 1))
    if shape == "star":
        # Connected sets of size k >= 2 contain the hub: C(n-1, k-1).
        return sum(
            math.comb(n - 1, k - 1) * (2 ** k - 2) for k in range(2, n + 1)
        )
    if shape == "cycle":
        # Arcs of size k (2 <= k < n): n each; plus the full cycle.
        total = sum(n * (2 ** k - 2) for k in range(2, n))
        if n >= 2:
            total += 2 ** n - 2
        return total
    # Clique: every subset of size k >= 2 is connected: C(n, k).
    return sum(math.comb(n, k) * (2 ** k - 2) for k in range(2, n + 1))


def table1_row(shape: str, n: int) -> Dict[str, int]:
    """Return the Table I row for one (shape, n): #csg, #ccp, #ngt."""
    return {
        "csg": csg_count(shape, n),
        "ccp": ccp_count(shape, n),
        "ngt": ngt_count(shape, n),
    }


def ccp_estimate(n: int, n_edges: int, max_degree: int = 2) -> int:
    """Heuristic #ccp estimate for a *connected* graph of any shape.

    The closed forms above only cover the four fixed shapes; ``auto``'s
    predicted-time rule (:mod:`repro.optimizer.api`) wants a prediction
    for arbitrary connected graphs without enumerating them (admission
    control counts instead).  Two observations make a cheap log-space
    interpolation defensible:

    * #ccp is **edge-monotone**: adding an edge only creates connected
      sets and partitions, so the chain (sparsest connected shape with
      bounded degree) and the clique bracket every connected graph with
      the same ``n``.
    * among trees, #ccp is driven by the maximum degree — a chain
      (degree 2) has Θ(n³) pairs while a star (degree n-1) has
      Θ(n·2ⁿ) — so trees are positioned between the chain and star
      closed forms by normalized max degree.

    The estimate interpolates ``log #ccp`` linearly: first between chain
    and star by ``(max_degree - 2) / (n - 3)`` to place the tree
    skeleton, then between that tree value and the clique by the excess
    edge density ``(m - (n-1)) / (n(n-1)/2 - (n-1))``.  The three
    endpoints with a closed form return it directly — chains
    (``max_degree <= 2``), stars (``max_degree = n - 1``), and cliques
    (``m = n(n-1)/2``) — so those estimates are *exact*, not merely
    close (the exp/log round trip used to overshoot by one); everything
    else is an underestimate that grows with ``n``.
    """
    if n < 1:
        raise GraphError("n must be positive")
    if n <= 2:
        return ccp_count("chain", n)
    min_edges = n - 1
    max_edges = n * (n - 1) // 2
    if not min_edges <= n_edges <= max_edges:
        raise GraphError(
            f"a connected graph on {n} vertices has between {min_edges} "
            f"and {max_edges} edges, got {n_edges}"
        )
    chain = ccp_count("chain", n)
    star = ccp_count("star", n)
    if n == 3:
        tree_log = math.log(chain)
    else:
        degree_t = min(1.0, max(0.0, (max_degree - 2) / (n - 3)))
        tree_log = (1.0 - degree_t) * math.log(chain) + degree_t * math.log(star)
    if n_edges == min_edges:
        # Exact endpoints, no exp/log round-trip error: a tree with
        # max degree 2 *is* the chain (for n == 3 the chain and star
        # coincide, which the special case above already encodes), and a
        # tree with max degree n-1 *is* the star.  The round trip is off
        # by ±1 ulp before ceil, which used to overshoot the closed form
        # by one for many n — enough to fail an exactness regression and
        # to mis-admit a query sitting exactly at the budget.
        if n == 3 or max_degree <= 2:
            return chain
        if max_degree >= n - 1:
            return star
        return max(chain, math.ceil(math.exp(tree_log)))
    clique = ccp_count("clique", n)
    if n_edges == max_edges:
        return clique  # exact endpoint, no exp/log round-trip error
    density_t = (n_edges - min_edges) / (max_edges - min_edges)
    log_estimate = (1.0 - density_t) * tree_log + density_t * math.log(clique)
    return max(chain, math.ceil(math.exp(log_estimate)))


def ccp_predict(graph: "QueryGraph") -> Tuple[int, str]:
    """Predict #ccp of a *connected* graph without enumerating it.

    Returns ``(ccps, method)``: the Table-I closed form for the four
    fixed shapes (``method="closed-form:<shape>"``), else
    :func:`ccp_estimate` from the graph's size, edge count and maximum
    degree (``method="interpolated"``).  ``auto``'s predicted-time rule
    prices a query through here.
    """
    n = graph.n_vertices
    shape = graph.shape_name()
    if shape in _SHAPES:
        return ccp_count(shape, n), f"closed-form:{shape}"
    max_degree = max(graph.degree(v) for v in range(n))
    return ccp_estimate(n, graph.n_edges, max_degree), "interpolated"


# ----------------------------------------------------------------------
# MinCutBranch work counters (Sec. III-F)
# ----------------------------------------------------------------------

def mcb_counters_chain(n: int) -> Dict[str, int]:
    """Predicted (i, r, l) for one Partition_MinCutBranch call on a chain.

    Acyclic graphs: ``i = |S| - 1`` loop iterations, no Reachable calls.
    """
    return {"i": n - 1, "r": 0, "l": 0}


def mcb_counters_cycle(n: int) -> Dict[str, int]:
    """Predicted (i, r, l) for one Partition_MinCutBranch call on a cycle.

    Sec. III-F: ``i = |S|^2/2 + |S|/2 - 2``, ``r = |S| - 2``, ``l = 0``.
    """
    return {"i": (n * n + n - 4) // 2, "r": n - 2, "l": 0}


def mcb_clique_total_work(n: int) -> int:
    """Paper's total work for one clique partition call: (5/4)2^n - n - 5."""
    return 5 * 2 ** n // 4 - n - 5


def mcb_per_ccp_clique(n: int) -> float:
    """MinCutBranch per-ccp work on a clique — bounded by 5/2 asymptotically."""
    return mcb_clique_total_work(n) / (2 ** (n - 1) - 1)


# ----------------------------------------------------------------------
# MinCutLazy work (Appendix B)
# ----------------------------------------------------------------------

def mcl_clique_total_work(n: int) -> float:
    """Paper's total clique work: (1/32)2^n (n^2 + 11n + 38)."""
    return 2 ** n * (n * n + 11 * n + 38) / 32.0


def mcl_per_ccp_clique(n: int) -> float:
    """MinCutLazy per-ccp work on a clique: (n^2 + 11n + 38)/16 ~ O(n^2)."""
    return mcl_clique_total_work(n) / (2 ** (n - 1))
