"""Physical join implementations and a min-over-alternatives cost model.

The paper's evaluation uses C_out, but its BuildTree machinery explicitly
anticipates choosing among several join implementations ("If different join
implementations have to be considered, among all alternatives the cheapest
join tree has to be built by CreateTree").  This module supplies the
textbook trio in the style of Haas et al. (VLDB Journal 1997), whom the
paper cites for join cost functions:

* block nested-loop join — ``|L| + |L| * |R| / buffer``
* (Grace) hash join       — ``c_build * |L| + c_probe * |R|``
* sort-merge join         — ``|L| log |L| + |R| log |R| + |L| + |R|``

All are asymmetric in their inputs, so pricing both orientations of a
symmetric ccp (Fig. 2's two CreateTree calls) genuinely matters here.
Every parameter must be a finite number >= 0 (``buffer_pages`` > 0);
anything else raises :class:`~repro.errors.OptimizationError` at
construction, also when the model arrives over the wire.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.cost.base import CostModel, JoinImplementation
from repro.errors import OptimizationError

__all__ = ["NestedLoopJoin", "HashJoin", "SortMergeJoin", "PhysicalCostModel"]


def _check_parameter(
    owner: str, name: str, value: Any, positive: bool = False
) -> None:
    """Refuse ``value`` unless it is a finite real number >= 0 (> 0 when
    ``positive``): a zero buffer divides by zero, and NaN or a negative
    weight makes every plan compare false."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number) or number < 0 or (positive and number == 0):
        bound = "> 0" if positive else ">= 0"
        raise OptimizationError(
            f"{owner}.{name} must be a finite number {bound}, got {value!r}"
        )


@dataclass(frozen=True)
class NestedLoopJoin(JoinImplementation):
    """Block nested-loop join: outer scanned once, inner per outer block."""

    name: str = "nestedloop"
    buffer_pages: float = 100.0

    def __post_init__(self) -> None:
        _check_parameter(
            "NestedLoopJoin", "buffer_pages", self.buffer_pages, positive=True
        )

    def cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> float:
        return left_card + left_card * right_card / self.buffer_pages


@dataclass(frozen=True)
class HashJoin(JoinImplementation):
    """Hash join: build on the left input, probe with the right."""

    name: str = "hash"
    build_factor: float = 2.0
    probe_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_parameter("HashJoin", "build_factor", self.build_factor)
        _check_parameter("HashJoin", "probe_factor", self.probe_factor)

    def cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> float:
        return self.build_factor * left_card + self.probe_factor * right_card


@dataclass(frozen=True)
class SortMergeJoin(JoinImplementation):
    """Sort-merge join: sort both inputs, then a linear merge."""

    name: str = "sortmerge"

    def cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> float:
        def sort_cost(card: float) -> float:
            return card * math.log2(card) if card > 1.0 else card

        return sort_cost(left_card) + sort_cost(right_card) + left_card + right_card


_DEFAULT_IMPLEMENTATIONS: Tuple[JoinImplementation, ...] = (
    NestedLoopJoin(),
    HashJoin(),
    SortMergeJoin(),
)


class PhysicalCostModel(CostModel):
    """Min over a set of physical join implementations, plus output cost.

    The output term (materializing/pipelining the result) keeps costs
    sensitive to intermediate result sizes even when one implementation
    dominates, mirroring C_out's behaviour at the margin.
    """

    name = "physical"

    def __init__(
        self,
        implementations: Sequence[JoinImplementation] = _DEFAULT_IMPLEMENTATIONS,
        output_weight: float = 1.0,
    ):
        if not implementations:
            raise OptimizationError("need at least one join implementation")
        _check_parameter("PhysicalCostModel", "output_weight", output_weight)
        self._implementations = tuple(implementations)
        self._output_weight = output_weight

    @property
    def implementations(self) -> Tuple[JoinImplementation, ...]:
        """The join implementations, in the order ties are broken."""
        return self._implementations

    @property
    def output_weight(self) -> float:
        """The weight of the output cardinality in every join's cost."""
        return self._output_weight

    def join_cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> Tuple[float, str]:
        best_cost = math.inf
        best_name = self._implementations[0].name
        for implementation in self._implementations:
            cost = implementation.cost(left_card, right_card, output_card)
            if cost < best_cost:
                best_cost = cost
                best_name = implementation.name
        return best_cost + self._output_weight * output_card, best_name

    # All bundled implementations are asymmetric in their inputs, so the
    # inherited ``symmetric = False`` stands: both orientations matter.

    def output_floor(self) -> float:
        # Implementation costs are non-negative, so the output term is the
        # local cost's floor.
        return float(self._output_weight)

    def signature_fields(self) -> Dict[str, Any]:
        return {
            "output_weight": self._output_weight,
            "implementations": [
                {"class": type(impl).__qualname__, **asdict(impl)}
                for impl in self._implementations
            ],
        }
