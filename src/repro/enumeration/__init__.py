"""csg-cmp-pair (ccp) enumeration: partitioning strategies for top-down
join enumeration, plus counting utilities for the search space."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "PartitioningStrategy": "repro.enumeration.base",
    "PartitionStats": "repro.enumeration.base",
    "NaivePartitioning": "repro.enumeration.naive",
    "ConservativePartitioning": "repro.enumeration.conservative",
    "MinCutBranch": "repro.enumeration.mincutbranch",
    "MinCutLazy": "repro.enumeration.mincutlazy",
    "TracedMinCutBranch": "repro.enumeration.trace",
    "TraceEvent": "repro.enumeration.trace",
    "TracedMinCutLazy": "repro.enumeration.trace_lazy",
    "LazyTraceEvent": "repro.enumeration.trace_lazy",
    "count_connected_subgraphs": "repro.enumeration.counting",
    "count_ccps": "repro.enumeration.counting",
    "count_ngt_subsets": "repro.enumeration.counting",
    "enumerate_connected_subgraphs": "repro.enumeration.counting",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
