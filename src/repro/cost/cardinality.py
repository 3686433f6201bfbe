"""Incremental cardinality estimation over relation sets.

Cardinality estimation is the expensive half of plan costing (the paper's
"Fortunate Observation": it happens once per connected subgraph, and is an
order of magnitude dearer than the join cost function).  The estimator
therefore exposes the incremental form used by the optimizers::

    card(S1 | S2) = card(S1) * card(S2) * sel_between(S1, S2)

so that each csg's cardinality is derived from its parts in O(crossing
edges) and cached in the memo table, never recomputed.
"""

from __future__ import annotations

from repro.catalog.statistics import Catalog

__all__ = ["CardinalityEstimator"]


class CardinalityEstimator:
    """Estimates intermediate-result cardinalities for one catalog.

    Tracks how many fresh estimations were performed (``estimations``),
    which benchmarks use to verify the once-per-csg property.
    """

    __slots__ = ("catalog", "estimations")

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.estimations = 0

    def base(self, vertex: int) -> float:
        """Return the base-relation cardinality for a single vertex."""
        return self.catalog.cardinality(vertex)

    def combine(
        self, left_set: int, left_card: float, right_set: int, right_card: float
    ) -> float:
        """Estimate ``card(left ∪ right)`` from the parts (incremental form)."""
        self.estimations += 1
        selectivity = self.catalog.selectivity_between(left_set, right_set)
        return left_card * right_card * selectivity
