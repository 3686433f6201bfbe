#!/usr/bin/env python
"""Smoke benchmark: admission control pays for itself on hostile queries.

Runs one clique query (the paper's worst-case shape) through services
with and without an admission budget, once per over-budget serving path:

* **heuristic ladder** (asymmetric physical cost model, so the
  fast-exact rung is ineligible): the degraded answer must arrive in
  **under 10% of the exact enumeration time**, name its rung (``goo``
  for a clique) and reason, and must not be cached.
* **fast-exact rung** (default symmetric ``C_out``): the same
  over-budget clique, asked of DPccp by name, must instead be answered
  by ``dpconv`` with the *exact optimum* — identical cost to full
  enumeration — faster than the exact engine, and marked
  ``fast_exact`` rather than ``degraded``.  (Under ``"auto"`` a host
  with the C kernel resolves the clique to dpconv outright, and the
  rung is never reached.)
  (The rung's own ≥1.5x speedup floor is gated separately by
  ``benchmarks/bench_dpconv.py``.)

Both runs confirm the admission estimate was correct (the clique's
closed-form #ccp really does exceed the budget).

Run:  python benchmarks/bench_resilience.py [--n 12] [--budget 10000]

Exit status is non-zero if any gate fails, so `make verify` can gate
on it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.analysis.formulas import ccp_count
from repro.catalog.workload import WorkloadGenerator
from repro.cost.physical import PhysicalCostModel
from repro.service import OptimizerService, ResilienceConfig

#: Acceptance: heuristic degraded latency below this fraction of exact.
DEGRADED_FRACTION_CEILING = 0.10


def timed_optimize(service, catalog, **overrides):
    started = time.perf_counter()
    result = service.optimize(catalog, **overrides)
    return time.perf_counter() - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12, help="clique size")
    parser.add_argument(
        "--budget",
        type=int,
        default=10_000,
        help="admission ccp budget the clique must exceed",
    )
    args = parser.parse_args(argv)

    instance = WorkloadGenerator(seed=20110411).fixed_shape("clique", args.n)
    catalog = instance.catalog
    expected_ccps = ccp_count("clique", args.n)
    print(
        f"resilience smoke bench (clique n={args.n}, "
        f"#ccp={expected_ccps}, budget={args.budget})"
    )
    failures = []
    if expected_ccps <= args.budget:
        failures.append(
            f"clique #ccp {expected_ccps} does not exceed the budget "
            f"{args.budget}; pick a larger --n or smaller --budget"
        )

    # Exact C_out optimum: baseline for the fast-exact rung and the
    # floor for the heuristic plan's (C_out-priced) cost sanity check.
    cout_exact_seconds, cout_exact = timed_optimize(
        OptimizerService(), catalog, algorithm="dpccp"
    )

    # -- heuristic ladder: asymmetric model keeps dpconv ineligible ----
    exact_seconds, exact = timed_optimize(
        OptimizerService(), catalog, cost_model=PhysicalCostModel()
    )
    exact.plan.validate()

    degraded_service = OptimizerService(
        resilience=ResilienceConfig(max_ccp_budget=args.budget)
    )
    degraded_seconds, degraded = timed_optimize(
        degraded_service, catalog, cost_model=PhysicalCostModel()
    )
    degraded.plan.validate()

    fraction = degraded_seconds / max(exact_seconds, 1e-12)
    print(
        f"exact (physical):    {exact_seconds * 1e3:10.2f}ms  "
        f"cost={exact.cost:.4g}"
    )
    print(
        f"degraded (physical): {degraded_seconds * 1e3:10.2f}ms  "
        f"cost={degraded.cost:.4g}  ({fraction * 100:.2f}% of exact)"
    )
    print(f"degraded details: {degraded.details}")

    if degraded.details.get("degraded") != 1:
        failures.append("over-budget clique was not served degraded")
    if degraded.details.get("rung") != "goo":
        failures.append(
            f"expected the goo rung for a clique, got "
            f"{degraded.details.get('rung')!r}"
        )
    if degraded.details.get("degrade_reason") != "over_budget":
        failures.append(
            f"expected reason 'over_budget', got "
            f"{degraded.details.get('degrade_reason')!r}"
        )
    if degraded.details.get("admission_estimate") != expected_ccps:
        failures.append(
            f"admission estimate {degraded.details.get('admission_estimate')} "
            f"!= closed-form #ccp {expected_ccps}"
        )
    if fraction >= DEGRADED_FRACTION_CEILING:
        failures.append(
            f"degraded answer took {fraction * 100:.1f}% of exact time "
            f"(ceiling {DEGRADED_FRACTION_CEILING * 100:.0f}%)"
        )
    # The heuristics optimize their own C_out-style objective whatever
    # the request's model, so the sanity floor is the C_out optimum.
    if degraded.cost < cout_exact.cost * (1 - 1e-9):
        failures.append(
            "degraded plan costs less than the exact optimum — "
            "the enumerator is broken"
        )
    snapshot = degraded_service.stats_snapshot()
    if snapshot["totals"]["degraded"] != 1:
        failures.append("degraded counter did not record the serving")

    # -- fast-exact rung: default C_out routes over-budget to dpconv ---
    fast_service = OptimizerService(
        resilience=ResilienceConfig(max_ccp_budget=args.budget)
    )
    fast_seconds, fast = timed_optimize(fast_service, catalog, algorithm="dpccp")
    fast.plan.validate()
    print(
        f"exact (cout):        {cout_exact_seconds * 1e3:10.2f}ms  "
        f"cost={cout_exact.cost:.4g}"
    )
    print(
        f"fast-exact (cout):   {fast_seconds * 1e3:10.2f}ms  "
        f"cost={fast.cost:.4g}  "
        f"({fast_seconds / max(cout_exact_seconds, 1e-12) * 100:.2f}% of exact)"
    )

    if fast.details.get("rung") != "dpconv":
        failures.append(
            f"expected the dpconv rung for a symmetric over-budget "
            f"clique, got {fast.details.get('rung')!r}"
        )
    if fast.details.get("fast_exact") != 1:
        failures.append("dpconv serving was not marked fast_exact")
    if fast.details.get("degraded"):
        failures.append("fast-exact serving must not be marked degraded")
    if not math.isclose(fast.cost, cout_exact.cost, rel_tol=1e-9):
        failures.append(
            f"dpconv cost {fast.cost!r} differs from the exact optimum "
            f"{cout_exact.cost!r}"
        )
    if fast_seconds >= cout_exact_seconds:
        failures.append(
            "fast-exact rung was not faster than exact enumeration"
        )
    fast_snapshot = fast_service.stats_snapshot()
    if fast_snapshot["totals"]["fast_exact"] != 1:
        failures.append("fast_exact counter did not record the serving")
    if fast_snapshot["totals"]["degraded"] != 0:
        failures.append("fast-exact serving wrongly bumped the degraded total")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            "ok: heuristic ladder beat the 10% ceiling; dpconv served "
            "the exact optimum"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
