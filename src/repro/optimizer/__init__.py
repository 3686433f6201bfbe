"""Plan generators: the generic top-down driver and bottom-up baselines."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "TopDownPlanGenerator": "repro.optimizer.topdown",
    "DPccp": "repro.optimizer.dpccp",
    "DPsub": "repro.optimizer.dpsub",
    "DPsize": "repro.optimizer.dpsize",
    "enumerate_csg": "repro.optimizer.dpccp",
    "enumerate_cmp": "repro.optimizer.dpccp",
    "ALGORITHMS": "repro.optimizer.api",
    "choose_algorithm": "repro.optimizer.api",
    "OptimizationRequest": "repro.optimizer.api",
    "OptimizationResult": "repro.optimizer.api",
    "make_optimizer": "repro.optimizer.api",
    "optimize_query": "repro.optimizer.api",
    "optimize_request": "repro.optimizer.api",
    "register_algorithm": "repro.optimizer.api",
    "unregister_algorithm": "repro.optimizer.api",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
