"""Synthetic execution substrate: run plans, don't just cost them.

The paper's evaluation never executes queries — C_out is a proxy.  This
package closes the loop for library users: generate synthetic tables
whose join-key distributions realize a catalog's cardinalities and
selectivities, execute any :class:`~repro.plan.jointree.JoinTree` with
in-memory hash joins, and compare actual intermediate-result sizes with
the optimizer's estimates.

* :func:`generate_database` — synthetic tables from a catalog,
* :class:`Executor` — bottom-up hash-join evaluation of a plan,
* :func:`validate_estimates` — measured-vs-estimated report per
  intermediate result.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "SyntheticDatabase": "repro.exec.datagen",
    "SyntheticTable": "repro.exec.datagen",
    "generate_database": "repro.exec.datagen",
    "Executor": "repro.exec.executor",
    "ExecutionResult": "repro.exec.executor",
    "validate_estimates": "repro.exec.executor",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
