"""Catalog substrate: relations, join predicates, statistics, workloads."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "Catalog": "repro.catalog.statistics",
    "Relation": "repro.catalog.statistics",
    "attach_random_statistics": "repro.catalog.workload",
    "uniform_statistics": "repro.catalog.workload",
    "QueryInstance": "repro.catalog.workload",
    "WorkloadGenerator": "repro.catalog.workload",
    "paper_workload": "repro.catalog.workload",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
