"""BuildTree / CreateTree: pricing both orientations of a ccp (Fig. 2).

``PlanBuilder`` is the piece of the shared optimizer infrastructure that
turns an emitted csg-cmp-pair into (up to) two candidate join trees and
keeps the cheaper one in the memo table.  Because symmetric pairs are
emitted only once, both argument orders are priced per Fig. 2 for
asymmetric cost models, and — per the paper's efficiency note — both
costs are derived from one cardinality estimation for the output set.
Cost models declaring :attr:`~repro.cost.base.CostModel.symmetric` (C_out
is) are priced once per ccp: the mirrored orientation costs the same and
can never win the strict ``<`` comparison.
"""

from __future__ import annotations

from repro.catalog.statistics import Catalog
from repro.cost.base import CostModel
from repro.cost.cardinality import CardinalityEstimator
from repro.plan.memo import MemoTable

__all__ = ["PlanBuilder"]


class PlanBuilder:
    """Shared plan-class maintenance for every enumerator.

    Parameters
    ----------
    catalog:
        Statistics for the query being optimized.
    cost_model:
        Prices a single join; see :mod:`repro.cost`.

    Attributes
    ----------
    memo:
        The memo table being filled.
    cost_evaluations:
        Number of join cost function evaluations performed.  Exactly one
        per ccp for symmetric cost models (the second orientation is
        provably redundant and skipped — see
        :attr:`repro.cost.base.CostModel.symmetric`), two per ccp for
        asymmetric models; benchmarks use it to cross-check #ccp counts.
        The fast kernel's inlined C_out pricing counts one evaluation
        per ccp too, so the counter is path-independent.
    """

    __slots__ = (
        "catalog",
        "cost_model",
        "estimator",
        "memo",
        "cost_evaluations",
        "_symmetric",
    )

    def __init__(self, catalog: Catalog, cost_model: CostModel):
        self.catalog = catalog
        self.cost_model = cost_model
        self.estimator = CardinalityEstimator(catalog)
        self.memo = MemoTable(catalog)
        self.cost_evaluations = 0
        self._symmetric = cost_model.is_symmetric()

    # ------------------------------------------------------------------

    def build_trees(self, union_set: int, left_set: int, right_set: int) -> None:
        """BuildTree (Fig. 2): price ``L ⋈ R`` and ``R ⋈ L``, keep the best.

        Both operand entries must already hold finished plans (the
        enumeration algorithms guarantee this by construction).  For
        symmetric cost models only the first orientation is priced: the
        second would produce the identical cost, and under the strict
        ``<`` comparison an equal candidate never replaces the incumbent,
        so skipping it changes neither the winner nor the tie-break.
        """
        memo = self.memo
        target = memo.get_or_create(union_set)
        left = memo[left_set]
        right = memo[right_set]
        if target.cardinality is None:
            # Estimated once, from the first priced ccp: every ccp gives
            # the same estimate up to rounding (independence assumption).
            target.cardinality = self.estimator.combine(
                left_set, left.cardinality, right_set, right.cardinality
            )
        output_card = target.cardinality
        subtree_cost = left.cost + right.cost

        cost_lr, impl_lr = self.cost_model.join_cost(
            left.cardinality, right.cardinality, output_card
        )
        self.cost_evaluations += 1
        total_lr = cost_lr + subtree_cost
        if total_lr < target.cost:
            target.cost = total_lr
            target.best_left = left_set
            target.best_right = right_set
            target.implementation = impl_lr

        if self._symmetric:
            return

        cost_rl, impl_rl = self.cost_model.join_cost(
            right.cardinality, left.cardinality, output_card
        )
        self.cost_evaluations += 1
        total_rl = cost_rl + subtree_cost
        if total_rl < target.cost:
            target.cost = total_rl
            target.best_left = right_set
            target.best_right = left_set
            target.implementation = impl_rl
