#!/usr/bin/env python
"""Acceptance benchmark for the fast enumeration kernel.

Times the full ``TopDownPlanGenerator.optimize()`` on the paper's four
canonical shapes plus a deep chain, once per path — the paper's recursive
TDPGSUB (``tdpgsub_reference``) and the allocation-free kernel that
``optimize()`` runs — and enforces three gates:

* **speedup**: the geometric-mean speedup across the timed shapes must
  reach :data:`SPEEDUP_FLOOR` (the kernel exists to cut the interpreter
  constant factor; if it stops paying for itself, fail loudly),
* **equivalence**: per shape, both paths must produce the identical
  optimal cost, the identical number of emitted ccps, and the identical
  plan shape — speed is worthless if the answer drifts,
* **depth**: a deep chain must optimize *and* extract through the
  kernel without ``RecursionError`` (the recursive driver dies near
  n=490; the explicit-stack kernel is bound by memory, not
  ``sys.getrecursionlimit()``).  The default smoke uses chain-200 —
  already past any plausible default recursion limit — because the
  full chain-600 case costs minutes of wall clock for the same
  assertion; ``--deep-chain`` opts into the full size.

Methodology: per shape, both paths are warmed once, then timed in
alternating order and the **best** run per path is compared.  Scheduler
preemption only ever adds time, so per-run minima converge on the true
cost, and alternation keeps machine-wide drift from landing on one path.

The per-shape numbers land in ``BENCH_kernel.json`` next to this repo's
other benchmark artifacts.  ``--profile`` instead prints the top-25
cProfile lines of the kernel path on the largest clique — the first
thing to look at when the speedup gate regresses.

Run:  python benchmarks/bench_kernel_speedup.py [--repeat N] [--skip-deep]
      python benchmarks/bench_kernel_speedup.py --profile

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
from repro.graph.shapes import (
    chain_graph,
    clique_graph,
    cycle_graph,
    star_graph,
)
from repro.optimizer.topdown import TopDownPlanGenerator, tdpgsub_reference

#: Acceptance: geometric-mean speedup of the kernel over the reference
#: driver across the timed shapes.
SPEEDUP_FLOOR = 1.3

#: Full deep-chain regression size: comfortably past the reference
#: driver's RecursionError threshold (~490 relations on default limits).
#: Opt-in via ``--deep-chain``; the default smoke runs SMOKE_CHAIN_N.
DEEP_CHAIN_N = 600

#: Default depth smoke: big enough that a recursive extraction from an
#: already-deep stack would die, cheap enough for every verify run.
SMOKE_CHAIN_N = 200

#: (label, graph builder, alternating timed repetitions per path).
#: Statistics are bounded (|R| = 4, sel = 0.25) so cardinalities — and
#: with them C_out — stay finite even on the 600-relation chain.
TIMED_SHAPES = [
    ("chain-18", lambda: chain_graph(18), 7),
    ("star-14", lambda: star_graph(14), 5),
    ("cycle-16", lambda: cycle_graph(16), 7),
    ("clique-14", lambda: clique_graph(14), 2),
    ("chain-100", lambda: chain_graph(100), 3),
]


def make_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


def run_once(catalog, path):
    """One full optimization; returns (seconds, optimizer, plan).

    ``path="reference"`` fills the memo with the reference recursion
    and extracts the plan the way ``optimize()`` does.
    """
    optimizer = TopDownPlanGenerator(catalog, MinCutBranch, CoutCostModel())
    started = time.perf_counter()
    if path == "kernel":
        plan = optimizer.optimize()
    else:
        root = catalog.graph.all_vertices
        tdpgsub_reference(optimizer, root)
        plan = optimizer.builder.memo.extract_plan(root)
    return time.perf_counter() - started, optimizer, plan


def bench_shape(label, graph, repeat):
    """Best-of-N alternating timings plus the equivalence cross-check."""
    catalog = make_catalog(graph)
    # Warmup (also the run used for the equivalence checks).
    _, reference, ref_plan = run_once(catalog, "reference")
    _, fast, fast_plan = run_once(catalog, "kernel")
    problems = []
    if fast.last_kernel != "fast":
        problems.append(f"{label}: optimize() reported {fast.last_kernel}")
    if ref_plan != fast_plan:
        problems.append(f"{label}: kernel plan differs from reference plan")
    if reference.partitioner.stats.emitted != fast.partitioner.stats.emitted:
        problems.append(
            f"{label}: ccp counts differ "
            f"({reference.partitioner.stats.emitted} vs "
            f"{fast.partitioner.stats.emitted})"
        )
    best = {"reference": math.inf, "kernel": math.inf}
    for index in range(repeat):
        order = list(best) if index % 2 == 0 else list(best)[::-1]
        for path in order:
            elapsed, _, _ = run_once(catalog, path)
            best[path] = min(best[path], elapsed)
    speedup = best["reference"] / best["kernel"]
    return {
        "shape": label,
        "ccps": fast.partitioner.stats.emitted,
        "cost": fast_plan.cost,
        "reference_ms": best["reference"] * 1e3,
        "kernel_ms": best["kernel"] * 1e3,
        "speedup": speedup,
    }, problems


def bench_deep_chain(n):
    """A deep chain must optimize and extract on the kernel path."""
    catalog = make_catalog(chain_graph(n))
    try:
        elapsed, optimizer, plan = run_once(catalog, "kernel")
    except RecursionError:
        return {
            "shape": f"chain-{n}",
            "recursion_error": True,
        }, [f"chain-{n}: kernel path hit RecursionError"]
    problems = []
    if plan.n_joins() != n - 1:
        problems.append(
            f"chain-{n}: extracted {plan.n_joins()} joins, "
            f"expected {n - 1}"
        )
    plan.validate()
    return {
        "shape": f"chain-{n}",
        "recursion_error": False,
        "kernel_ms": elapsed * 1e3,
        "ccps": optimizer.partitioner.stats.emitted,
        "joins": plan.n_joins(),
    }, problems


def profile_kernel(top=25):
    """cProfile the kernel path on the largest timed clique."""
    import cProfile
    import pstats

    catalog = make_catalog(clique_graph(14))
    optimizer = TopDownPlanGenerator(catalog, MinCutBranch, CoutCostModel())
    profiler = cProfile.Profile()
    profiler.enable()
    optimizer.optimize()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="override the per-shape timed repetitions",
    )
    parser.add_argument(
        "--skip-deep", action="store_true",
        help="skip the deep-chain depth regression entirely",
    )
    parser.add_argument(
        "--deep-chain", action="store_true",
        help=f"run the full chain-{DEEP_CHAIN_N} depth regression "
        f"(minutes of wall clock; default is a chain-{SMOKE_CHAIN_N} "
        "smoke covering the same RecursionError assertion)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON results (default: "
        "BENCH_kernel.json in the shared gate-report directory)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the top-25 kernel profile on clique-14 and exit",
    )
    args = parser.parse_args(argv)

    if args.profile:
        profile_kernel()
        return 0

    print("fast-kernel speedup bench (best-of-N alternating runs per shape)")
    failures = []
    rows = []
    for label, builder, repeat in TIMED_SHAPES:
        row, problems = bench_shape(
            label, builder(), args.repeat or repeat
        )
        failures.extend(problems)
        rows.append(row)
        print(
            f"{label:10s} reference={row['reference_ms']:9.1f}ms "
            f"kernel={row['kernel_ms']:9.1f}ms "
            f"speedup={row['speedup']:.2f}x  ({row['ccps']} ccps)"
        )

    geomean = math.exp(
        sum(math.log(row["speedup"]) for row in rows) / len(rows)
    )
    print(f"geometric-mean speedup: {geomean:.3f}x (floor {SPEEDUP_FLOOR}x)")
    if geomean < SPEEDUP_FLOOR:
        failures.append(
            f"geometric-mean speedup {geomean:.3f}x is below the "
            f"{SPEEDUP_FLOOR}x floor"
        )

    deep_row = None
    if not args.skip_deep:
        deep_n = DEEP_CHAIN_N if args.deep_chain else SMOKE_CHAIN_N
        deep_row, problems = bench_deep_chain(deep_n)
        failures.extend(problems)
        if not problems:
            print(
                f"chain-{deep_n}: optimized and extracted "
                f"{deep_row['joins']} joins in {deep_row['kernel_ms']:.0f}ms "
                f"({deep_row['ccps']} ccps) without RecursionError"
            )

    report = {
        "bench": "kernel_speedup",
        "speedup_floor": SPEEDUP_FLOOR,
        "geomean_speedup": geomean,
        "shapes": rows,
        "deep_chain": deep_row,
        "failures": failures,
    }
    from repro.bench.report import write_bench_report

    args.output = write_bench_report("kernel", report, output=args.output)
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
