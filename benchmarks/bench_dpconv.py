#!/usr/bin/env python
"""Acceptance benchmark for the DPconv fast-exact tier.

Times the full ``optimize()`` on dense graphs — where both engines touch
``O(3^n)`` split candidates and the contest is pure constant factor —
once per engine: the fast top-down kernel
(``TopDownPlanGenerator(use_kernel=True)``, the PR 6 allocation-free
driver) and the layered (min,+) convolution
(:class:`~repro.optimizer.dpconv.DPconvPlanGenerator`).  Two gates:

* **speedup**: on the headline shape (clique-14, ``C_out``) dpconv must
  beat the kernel by :data:`SPEEDUP_FLOOR`; the tier exists to serve
  over-budget dense queries exactly instead of degrading them to
  heuristics, and if it stops being decisively faster the degradation
  ladder should stop preferring it,
* **equivalence**: per shape, both engines must produce the identical
  optimal cost (statistics are powers of two, so cardinality arithmetic
  is exact and bit-identical costs are required, not approximate ones)
  and the identical ccp count (``cost_evaluations``).

Methodology: per shape, both engines are warmed once, then timed in
alternating order and the **best** run per engine is compared —
scheduler preemption only ever adds time, so per-run minima converge on
the true cost.

The numbers land in ``BENCH_dpconv.json``.  On machines (or reduced
container shares) where the headline clique cannot finish its kernel
warmup inside ``--deadline`` seconds, the gate is skipped with a loud
notice instead of reporting a bogus ratio.

Run:  python benchmarks/bench_dpconv.py [--repeat N] [--quick]

Exit status is non-zero if any gate fails, so ``make verify`` gates on it.
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

#: Acceptance: dpconv speedup over the fast kernel on the headline shape.
SPEEDUP_FLOOR = 1.5

#: (label, graph builder, timed repetitions per engine, gated?).  Dense
#: shapes only: on sparse graphs the kernel's ccp-proportional work wins
#: by design and the ladder never routes them to dpconv anyway.
TIMED_SHAPES = [
    ("clique-10", lambda: clique_graph(10), 3, False),
    ("grid-3x4", lambda: grid_graph(3, 4), 3, False),
    ("clique-14", lambda: clique_graph(14), 2, True),
]


def make_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


def run_once(catalog, engine):
    """One full optimization; returns (seconds, optimizer, plan)."""
    if engine == "kernel":
        optimizer = TopDownPlanGenerator(
            catalog, MinCutBranch, CoutCostModel(), use_kernel=True
        )
    else:
        # Pin the pure-python convolution: this gate prices the dpconv
        # *tier* against the fast kernel, and must keep doing so on
        # hosts where the C rung would otherwise auto-select
        # (bench_native_kernel.py owns the native-vs-pure comparison).
        optimizer = DPconvPlanGenerator(
            catalog, cost_model=CoutCostModel(), native_backend="off"
        )
    started = time.perf_counter()
    plan = optimizer.optimize()
    return time.perf_counter() - started, optimizer, plan


def bench_shape(label, graph, repeat):
    """Best-of-N alternating timings plus the equivalence cross-check."""
    catalog = make_catalog(graph)
    # Warmup (also the runs used for the equivalence checks).
    _, kernel, kernel_plan = run_once(catalog, "kernel")
    _, conv, conv_plan = run_once(catalog, "dpconv")
    problems = []
    if kernel.last_kernel != "fast" or conv.last_kernel != "dpconv":
        problems.append(
            f"{label}: engine selection reported "
            f"{kernel.last_kernel}/{conv.last_kernel}"
        )
    if conv_plan.cost != kernel_plan.cost:
        problems.append(
            f"{label}: dpconv cost {conv_plan.cost!r} differs from "
            f"kernel cost {kernel_plan.cost!r}"
        )
    if conv.builder.cost_evaluations != kernel.builder.cost_evaluations:
        problems.append(
            f"{label}: ccp counts differ "
            f"({conv.builder.cost_evaluations} vs "
            f"{kernel.builder.cost_evaluations})"
        )
    conv_plan.validate()
    best = {"kernel": math.inf, "dpconv": math.inf}
    for index in range(repeat):
        order = (
            ("kernel", "dpconv") if index % 2 == 0 else ("dpconv", "kernel")
        )
        for engine in order:
            elapsed, _, _ = run_once(catalog, engine)
            best[engine] = min(best[engine], elapsed)
    return {
        "shape": label,
        "ccps": conv.builder.cost_evaluations,
        "cost": conv_plan.cost,
        "kernel_ms": best["kernel"] * 1e3,
        "dpconv_ms": best["dpconv"] * 1e3,
        "speedup": best["kernel"] / best["dpconv"],
    }, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="override the per-shape timed repetitions",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the gated headline shape (equivalence rows only)",
    )
    parser.add_argument(
        "--deadline", type=float, default=120.0,
        help="seconds the headline kernel warmup may take before the "
        "speedup gate is skipped with a notice",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON results (default: "
        "BENCH_dpconv.json in the shared gate-report directory)",
    )
    args = parser.parse_args(argv)

    print("dpconv vs fast-kernel bench (best-of-N alternating runs per shape)")
    failures = []
    rows = []
    skipped = []
    for label, builder, repeat, gated in TIMED_SHAPES:
        if gated and args.quick:
            skipped.append(f"{label}: --quick skipped the gated shape")
            continue
        if gated:
            # Probe the kernel once; a machine too slow to finish the
            # warmup in time cannot produce a meaningful ratio.
            probe_started = time.perf_counter()
            _, _, _ = run_once(make_catalog(builder()), "kernel")
            probe = time.perf_counter() - probe_started
            if probe > args.deadline:
                skipped.append(
                    f"{label}: kernel warmup took {probe:.0f}s "
                    f"(> {args.deadline:.0f}s deadline); speedup gate "
                    "skipped on this machine"
                )
                continue
        row, problems = bench_shape(label, builder(), args.repeat or repeat)
        failures.extend(problems)
        row["gated"] = gated
        rows.append(row)
        print(
            f"{label:10s} kernel={row['kernel_ms']:9.1f}ms "
            f"dpconv={row['dpconv_ms']:9.1f}ms "
            f"speedup={row['speedup']:.2f}x  ({row['ccps']} ccps)"
        )
        if gated and row["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"{label}: speedup {row['speedup']:.2f}x is below the "
                f"{SPEEDUP_FLOOR}x floor"
            )

    for notice in skipped:
        print(f"SKIP: {notice}")

    report = {
        "bench": "dpconv",
        "speedup_floor": SPEEDUP_FLOOR,
        "shapes": rows,
        "skipped": skipped,
        "failures": failures,
    }
    from repro.bench.report import write_bench_report

    args.output = write_bench_report("dpconv", report, output=args.output)
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
