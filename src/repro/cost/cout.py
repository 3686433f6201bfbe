"""The C_out cost model used in the paper's evaluation (Sec. IV-A).

"Since, due to the fact that we ignore pruning, the cost calculation is
immaterial for our investigation, we simply use C_out.  It sums up the
cardinalities of the intermediate results."

The local cost of a join is therefore just the output cardinality; the
accumulated plan cost is the sum of all intermediate result sizes.
"""

from __future__ import annotations

from typing import Tuple

from repro.cost.base import CostModel

__all__ = ["CoutCostModel"]


class CoutCostModel(CostModel):
    """C_out: cost of a join = cardinality of its result."""

    name = "cout"
    symmetric = True

    def join_cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> Tuple[float, str]:
        return output_card, "join"

    def output_floor(self) -> float:
        return 1.0
