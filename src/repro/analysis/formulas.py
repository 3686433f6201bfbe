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
from typing import Dict

from repro.errors import GraphError

__all__ = [
    "csg_count",
    "ccp_count",
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
