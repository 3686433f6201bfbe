#!/usr/bin/env python
"""Acceptance benchmark for the native (compiled C) dpconv rung.

Times the full ``DPconvPlanGenerator.optimize()`` on the dense gate
shapes with the pure-python convolution (``native_backend="off"``) and
with the compiled C rung, and enforces:

* **speedup**: the geometric-mean speedup of the C rung over pure
  python across the gate shapes must reach :data:`SPEEDUP_FLOOR` — the
  native rung exists to lift the interpreter constant factor off the
  hottest loop in the system, and the bar is deliberately higher than
  any other gate in the repo,
* **equivalence**: per shape, the same plan tree, bit-equal optimal
  cost, equal ``cost_evaluations`` (the candidate-pricing count), and
  equal memo size against the pure engine,
* **ccp parity**: the pure dpconv engine itself is cross-checked against
  the reference top-down kernel on every shape, so the whole ladder is
  anchored to the paper-faithful enumerator, not just to itself.

On hosts where no C kernel can be loaded or built (no cffi or no
compiler) the gate **skips with a loud notice** instead of failing —
silent degradation to pure python is a supported configuration, and
the CI matrix has a dedicated leg proving it.

Methodology: per shape and backend, one warmup (also the equivalence
run), then best-of-N alternating timed runs — scheduler preemption only
adds time, so per-run minima converge on the true cost, and alternation
keeps machine-wide drift from landing on one backend.

The numbers land in ``BENCH_native.json`` (with the environment stanza
recording which backend actually resolved).

Run:  python benchmarks/bench_native_kernel.py [--repeat N]

Exit status is non-zero if any gate fails, so ``make bench-native`` (and
``make verify``) gate on it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.catalog.workload import uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.enumeration.mincutbranch import MinCutBranch
from repro.graph.shapes import clique_graph, grid_graph
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.serialize import plan_to_dict

#: Acceptance: geometric-mean speedup of the C rung over the
#: pure-python dpconv engine across the gate shapes.
SPEEDUP_FLOOR = 5.0

#: (label, graph builder, timed repetitions per backend).  The ISSUE's
#: gate shapes: dense graphs where the layered convolution touches all
#: O(3^n) splits and the contest is pure constant factor.
TIMED_SHAPES = [
    ("clique-10", lambda: clique_graph(10), 5),
    ("grid-3x4", lambda: grid_graph(3, 4), 5),
    ("clique-14", lambda: clique_graph(14), 3),
]


def make_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


def run_once(catalog, backend):
    """One full optimization; returns (seconds, optimizer, plan)."""
    if backend == "reference":
        optimizer = TopDownPlanGenerator(
            catalog, MinCutBranch, CoutCostModel(), use_kernel=True
        )
    else:
        optimizer = DPconvPlanGenerator(
            catalog, cost_model=CoutCostModel(), native_backend=backend
        )
    started = time.perf_counter()
    plan = optimizer.optimize()
    return time.perf_counter() - started, optimizer, plan


def bench_shape(label, graph, repeat):
    """Best-of-N alternating timings plus the equivalence checks."""
    catalog = make_catalog(graph)
    engines = ["off", "c"]
    # Warmups (also the runs used for the equivalence checks).
    warm = {engine: run_once(catalog, engine) for engine in engines}
    _, reference, ref_plan = run_once(catalog, "reference")
    problems = []
    _, pure, pure_plan = warm["off"]
    if pure.last_backend != "python":
        problems.append(
            f"{label}: native_backend='off' ran backend "
            f"{pure.last_backend!r}, expected 'python'"
        )
    if pure_plan.cost != ref_plan.cost:
        problems.append(
            f"{label}: pure dpconv cost {pure_plan.cost!r} differs from "
            f"reference kernel cost {ref_plan.cost!r}"
        )
    if pure.builder.cost_evaluations != reference.builder.cost_evaluations:
        problems.append(
            f"{label}: ccp counts differ from reference "
            f"({pure.builder.cost_evaluations} vs "
            f"{reference.builder.cost_evaluations})"
        )
    _, conv, plan = warm["c"]
    if conv.last_backend != "c":
        problems.append(
            f"{label}: requested backend 'c' but {conv.last_backend!r} ran"
        )
    if plan.cost != pure_plan.cost:
        problems.append(
            f"{label}/c: cost {plan.cost!r} differs from "
            f"pure cost {pure_plan.cost!r} (bit-identity required)"
        )
    if plan_to_dict(plan) != plan_to_dict(pure_plan):
        problems.append(f"{label}/c: plan tree differs from the pure one")
    if conv.builder.cost_evaluations != pure.builder.cost_evaluations:
        problems.append(
            f"{label}/c: cost_evaluations "
            f"{conv.builder.cost_evaluations} != "
            f"{pure.builder.cost_evaluations}"
        )
    if len(conv.builder.memo) != len(pure.builder.memo):
        problems.append(
            f"{label}/c: memo size {len(conv.builder.memo)} "
            f"!= {len(pure.builder.memo)}"
        )
    plan.validate()
    best = {engine: math.inf for engine in engines}
    for index in range(repeat):
        order = engines if index % 2 == 0 else engines[::-1]
        for engine in order:
            elapsed, _, _ = run_once(catalog, engine)
            best[engine] = min(best[engine], elapsed)
    row = {
        "shape": label,
        "ccps": pure.builder.cost_evaluations,
        "cost": pure_plan.cost,
        "pure_ms": best["off"] * 1e3,
        "c_ms": best["c"] * 1e3,
        "speedup": best["off"] / best["c"],
    }
    return row, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="override the per-shape timed repetitions",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON results (default: "
        "BENCH_native.json in the shared gate-report directory)",
    )
    args = parser.parse_args(argv)

    from repro.bench.report import write_bench_report
    from repro.optimizer import native
    from repro.optimizer._native_build import load_c_kernel

    if load_c_kernel(build=True) is None:
        # Supported configuration, not a failure: the selection ladder
        # degrades to pure python and the rest of the suite still gates.
        status = native.native_backend_status()
        notice = (
            "no C kernel can be loaded or built on this host "
            f"(cffi={status['cffi']['available']}, "
            f"compiler={status['compiler']['available']}); "
            "skipping the native speedup gate"
        )
        print(f"SKIP: {notice}")
        args.output = write_bench_report(
            "native",
            {
                "bench": "native_kernel",
                "speedup_floor": SPEEDUP_FLOOR,
                "skipped": [notice],
                "shapes": [],
                "failures": [],
            },
            output=args.output,
        )
        print(f"wrote {args.output}")
        return 0

    print("native-backend bench (best-of-N alternating runs per shape)")
    failures = []
    rows = []
    for label, builder, repeat in TIMED_SHAPES:
        row, problems = bench_shape(label, builder(), args.repeat or repeat)
        failures.extend(problems)
        rows.append(row)
        print(
            f"{label:10s} pure={row['pure_ms']:9.2f}ms  "
            f"c={row['c_ms']:8.2f}ms ({row['speedup']:.1f}x)"
        )

    geomean = math.exp(
        sum(math.log(row["speedup"]) for row in rows) / len(rows)
    )
    print(
        f"geometric-mean C speedup: {geomean:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    if geomean < SPEEDUP_FLOOR:
        failures.append(
            f"geometric-mean native speedup {geomean:.2f}x is below "
            f"the {SPEEDUP_FLOOR}x floor"
        )

    report = {
        "bench": "native_kernel",
        "speedup_floor": SPEEDUP_FLOOR,
        "geomean_speedup": geomean,
        "backends": ["c"],
        "shapes": rows,
        "skipped": [],
        "failures": failures,
    }
    args.output = write_bench_report("native", report, output=args.output)
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
