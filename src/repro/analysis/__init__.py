"""Analytic formulas, complexity predictions, and EXPLAIN reporting."""

from repro._lazy import attach as _attach

# Bound eagerly: ``explain`` is both this function and the submodule
# defining it, and importing the submodule after a lazy lookup would
# rebind the package attribute to the module.
from repro.analysis.explain import explain, explain_comparison

_EXPORTS = {
    "csg_count": "repro.analysis.formulas",
    "ccp_count": "repro.analysis.formulas",
    "ngt_count": "repro.analysis.formulas",
    "table1_row": "repro.analysis.formulas",
    "mcb_counters_chain": "repro.analysis.formulas",
    "mcb_counters_cycle": "repro.analysis.formulas",
    "mcb_clique_total_work": "repro.analysis.formulas",
    "mcl_clique_total_work": "repro.analysis.formulas",
    "mcl_per_ccp_clique": "repro.analysis.formulas",
    "mcb_per_ccp_clique": "repro.analysis.formulas",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = ["explain", "explain_comparison", *_EXPORTS]
