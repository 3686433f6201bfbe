"""Plan representation: join trees, the memo table, and BuildTree."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "JoinTree": "repro.plan.jointree",
    "MemoEntry": "repro.plan.memo",
    "MemoTable": "repro.plan.memo",
    "PlanBuilder": "repro.plan.builder",
    "validate_plan": "repro.plan.validation",
    "PlanViolation": "repro.plan.validation",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
