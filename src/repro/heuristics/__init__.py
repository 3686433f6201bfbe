"""Restricted plan spaces and classic join-ordering heuristics.

The paper searches the full bushy, cross-product-free space
exhaustively.  This package supplies the classic comparison points from
the join-ordering literature the paper builds on:

* :func:`optimal_left_deep` — exact DP over the *left-deep* subspace
  (Ioannidis & Kang's strategy-space comparison, the paper's ref. [1]),
* :class:`IKKBZ` — the polynomial-time optimal left-deep algorithm for
  acyclic queries under ASI cost functions,
* :func:`greedy_operator_ordering` — GOO, the standard bushy greedy
  heuristic.

They quantify what exhaustive bushy enumeration buys: the examples and
benches compare their plan quality against the optimizers' optimum.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "optimal_left_deep": "repro.heuristics.leftdeep",
    "greedy_operator_ordering": "repro.heuristics.goo",
    "greedy_hyper_ordering": "repro.heuristics.hyper_goo",
    "IKKBZ": "repro.heuristics.ikkbz",
    "ikkbz_optimal_left_deep": "repro.heuristics.ikkbz",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
