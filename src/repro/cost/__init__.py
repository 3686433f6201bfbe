"""Cost models and cardinality estimation."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "CostModel": "repro.cost.base",
    "JoinImplementation": "repro.cost.base",
    "CoutCostModel": "repro.cost.cout",
    "PhysicalCostModel": "repro.cost.physical",
    "NestedLoopJoin": "repro.cost.physical",
    "HashJoin": "repro.cost.physical",
    "SortMergeJoin": "repro.cost.physical",
    "CardinalityEstimator": "repro.cost.cardinality",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
