#!/usr/bin/env python
"""Acceptance benchmark for anytime optimization (cooperative budgets).

Two gates:

* **responsiveness**: a clique-16 request under a 50 ms cooperative
  deadline must return a *valid* salvaged plan within
  ``deadline + OVERSHOOT_ALLOWANCE`` — the stride-checked budget bounds
  how far the engine can run past its deadline, and the salvage path
  itself must stay cheap.  The salvaged plan must also respect the
  anytime floor: never costlier than the pure-GOO heuristic it replaces.
* **overhead**: threading the budget checks through the iterative
  kernel's hot loops must cost at most :data:`OVERHEAD_CEILING` on
  queries that never expire.  Per shape, the kernel is timed with no
  budget and with a far-future budget (same code path as a live
  deadline, minus the expiry) in alternating best-of-N runs; the gate is
  on the geometric mean of the per-shape ratios.

Methodology matches ``bench_dpconv.py`` in spirit (warmup first, legs
paired in time so load drift cancels) with one addition: before each
shape's real measurement, the same pairing harness times *plain vs
plain* control pairs whose true ratio is exactly 1.0.  The worst
control deviation is the machine's timer-noise floor; when it exceeds
:data:`NOISE_CEILING` the overhead gate is skipped with a loud notice
instead of reporting scheduler noise as a regression.  The
responsiveness gate has the analogous escape hatch for machines too
slow to finish salvage inside the allowance.

The numbers land in ``BENCH_anytime.json``.

Run:  python benchmarks/bench_anytime.py [--repeat N] [--quick]

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
    grid_graph,
    star_graph,
)
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.budget import Budget
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.plan.validation import validate_plan

#: Responsiveness gate: salvaged answer due within deadline + this.
DEADLINE_SECONDS = 0.050
OVERSHOOT_ALLOWANCE = 0.020

#: Overhead gate: budgeted/unbudgeted kernel geomean ratio ceiling.
OVERHEAD_CEILING = 1.01

#: Stability probe: per shape, identical plain-vs-plain leg pairs are
#: timed first; if their median ratio strays from 1.0 by more than this,
#: the machine cannot resolve a 1% effect and the overhead gate is
#: skipped with a notice instead of failing on scheduler noise.
NOISE_CEILING = 0.005

#: Shapes for the overhead gate — the kernel's everyday diet, where the
#: budget checks ride the hottest loops but never fire.  Per shape:
#: ``inner`` repetitions are aggregated into one timed leg (so a leg is
#: tens of milliseconds and scheduler noise averages out even for a
#: 1ms query), and ``pairs`` adjacent budgeted/plain leg pairs feed the
#: median ratio — pairing in time cancels machine-load drift that
#: independent per-mode minima cannot.
OVERHEAD_SHAPES = [
    ("chain-16", lambda: chain_graph(16), 40, 9),
    ("cycle-14", lambda: cycle_graph(14), 25, 9),
    ("star-14", lambda: star_graph(14), 1, 9),
    ("grid-3x4", lambda: grid_graph(3, 4), 3, 9),
    ("clique-12", lambda: clique_graph(12), 1, 5),
]


def make_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


# ----------------------------------------------------------------------
# Gate 1: responsiveness + anytime floor
# ----------------------------------------------------------------------


def run_anytime_once(catalog):
    """One budgeted clique-16 run; returns (elapsed, result)."""
    request = OptimizationRequest(
        query=catalog,
        algorithm="tdmincutbranch",
        deadline_seconds=DEADLINE_SECONDS,
    )
    started = time.perf_counter()
    result = optimize_request(request)
    return time.perf_counter() - started, result


def bench_responsiveness(repeat):
    catalog = make_catalog(clique_graph(16))
    problems = []
    # Warmup run doubles as the correctness check.
    warm_elapsed, warm = run_anytime_once(catalog)
    if warm.details.get("anytime") != 1:
        problems.append(
            "clique-16 finished inside 50ms?! anytime path not exercised"
        )
        return None, problems
    violations = validate_plan(warm.plan, catalog, cost_model=CoutCostModel())
    if violations:
        problems.append(f"salvaged plan invalid: {violations[:3]}")
    report = warm.details.get("salvage", {})
    if report.get("salvaged_cost", math.inf) > report.get("goo_cost", 0.0):
        problems.append(
            f"anytime floor violated: salvaged {report.get('salvaged_cost')} "
            f"> goo {report.get('goo_cost')}"
        )
    best = warm_elapsed
    for _ in range(repeat):
        elapsed, result = run_anytime_once(catalog)
        best = min(best, elapsed)
        if result.details.get("anytime") != 1:
            problems.append("a timed run unexpectedly finished exact")
    row = {
        "shape": "clique-16",
        "deadline_ms": DEADLINE_SECONDS * 1e3,
        "best_elapsed_ms": best * 1e3,
        "overshoot_ms": (best - DEADLINE_SECONDS) * 1e3,
        "memo_solved_fraction": report.get("memo_solved_fraction"),
        "salvaged_cost": report.get("salvaged_cost"),
        "goo_cost": report.get("goo_cost"),
        "source": report.get("source"),
    }
    return row, problems


# ----------------------------------------------------------------------
# Gate 2: cooperative-check overhead on the kernel's hot loops
# ----------------------------------------------------------------------


def run_kernel_once(catalog, budgeted):
    optimizer = TopDownPlanGenerator(catalog, MinCutBranch, CoutCostModel())
    if budgeted:
        # Far-future deadline: every check runs, none ever fires.
        optimizer.budget = Budget(deadline_seconds=1e9)
    started = time.perf_counter()
    plan = optimizer.optimize()
    return time.perf_counter() - started, plan


def time_leg(catalog, budgeted, inner):
    """One timed leg: ``inner`` aggregated full runs, seconds per run."""
    started = time.perf_counter()
    for _ in range(inner):
        run_kernel_once(catalog, budgeted)
    return (time.perf_counter() - started) / inner


def _median_pair_ratio(catalog, inner, pairs, budgeted_leg):
    """Median ratio over time-adjacent leg pairs (order alternates)."""
    ratios = []
    firsts = []
    seconds = []
    for index in range(pairs):
        if index % 2 == 0:
            denominator = time_leg(catalog, False, inner)
            numerator = time_leg(catalog, budgeted_leg, inner)
        else:
            numerator = time_leg(catalog, budgeted_leg, inner)
            denominator = time_leg(catalog, False, inner)
        ratios.append(numerator / denominator)
        firsts.append(numerator)
        seconds.append(denominator)
    ratios.sort()
    return ratios[len(ratios) // 2], min(firsts), min(seconds)


def bench_overhead(pairs_override):
    rows = []
    problems = []
    noise = []
    for label, builder, inner, shape_pairs in OVERHEAD_SHAPES:
        pairs = pairs_override or shape_pairs
        catalog = make_catalog(builder())
        _, plain_plan = run_kernel_once(catalog, budgeted=False)
        _, budgeted_plan = run_kernel_once(catalog, budgeted=True)
        if plain_plan.cost != budgeted_plan.cost:
            problems.append(
                f"{label}: far-future budget changed the answer "
                f"({budgeted_plan.cost!r} vs {plain_plan.cost!r})"
            )
        # Stability probe: both legs identical, true ratio is exactly 1.
        control, _, _ = _median_pair_ratio(catalog, inner, pairs, False)
        noise.append(abs(control - 1.0))
        median, budgeted_best, plain_best = _median_pair_ratio(
            catalog, inner, pairs, True
        )
        rows.append({
            "shape": label,
            "plain_ms": plain_best * 1e3,
            "budgeted_ms": budgeted_best * 1e3,
            "control": control,
            "ratio": median,
        })
    geomean = math.exp(
        sum(math.log(row["ratio"]) for row in rows) / len(rows)
    )
    return rows, geomean, max(noise), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="override the per-shape timed repetitions",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON results (default: "
        "BENCH_anytime.json in the shared gate-report directory)",
    )
    args = parser.parse_args(argv)
    repeat_override = 2 if args.quick else args.repeat

    print("anytime bench: 50ms clique-16 salvage + kernel check overhead")
    failures = []
    skipped = []

    responsiveness, problems = bench_responsiveness(repeat_override or 5)
    failures.extend(problems)
    if responsiveness is not None:
        print(
            f"clique-16  deadline={responsiveness['deadline_ms']:.0f}ms "
            f"best={responsiveness['best_elapsed_ms']:.1f}ms "
            f"solved={responsiveness['memo_solved_fraction']:.2f} "
            f"source={responsiveness['source']}"
        )
        budget = DEADLINE_SECONDS + OVERSHOOT_ALLOWANCE
        if responsiveness["best_elapsed_ms"] > budget * 1e3:
            # A machine that cannot even run the salvage path inside the
            # allowance is too slow/preempted for a 20ms gate to mean
            # anything; 4x over is a real regression anywhere.
            if responsiveness["best_elapsed_ms"] > 4 * budget * 1e3:
                failures.append(
                    f"clique-16: best {responsiveness['best_elapsed_ms']:.1f}ms "
                    f"is far beyond deadline+{OVERSHOOT_ALLOWANCE * 1e3:.0f}ms"
                )
            else:
                skipped.append(
                    f"clique-16: best {responsiveness['best_elapsed_ms']:.1f}ms "
                    f"exceeds the {budget * 1e3:.0f}ms gate — machine too "
                    "slow/preempted for a 20ms allowance; gate skipped"
                )

    overhead_rows, geomean, noise, problems = bench_overhead(repeat_override)
    failures.extend(problems)
    for row in overhead_rows:
        print(
            f"{row['shape']:10s} plain={row['plain_ms']:8.1f}ms "
            f"budgeted={row['budgeted_ms']:8.1f}ms "
            f"control={row['control']:.3f} ratio={row['ratio']:.3f}"
        )
    print(
        f"overhead geomean: {geomean:.4f} (ceiling {OVERHEAD_CEILING}, "
        f"timer noise {noise:.4f})"
    )
    if geomean > OVERHEAD_CEILING:
        if noise > NOISE_CEILING:
            # The control pairs time the SAME code twice; any deviation
            # from 1.0 is pure machine noise.  When that noise exceeds
            # half the gate, a failure here says nothing about the code.
            skipped.append(
                f"overhead gate: control (plain/plain) ratio deviates "
                f"{noise:.4f} from 1.0 — the machine cannot resolve a "
                f"{OVERHEAD_CEILING - 1:.0%} effect; gate skipped "
                f"(measured geomean {geomean:.4f})"
            )
        else:
            failures.append(
                f"cooperative-check overhead geomean {geomean:.4f} exceeds "
                f"the {OVERHEAD_CEILING} ceiling (timer noise {noise:.4f})"
            )

    for notice in skipped:
        print(f"SKIP: {notice}")

    report = {
        "bench": "anytime",
        "deadline_seconds": DEADLINE_SECONDS,
        "overshoot_allowance_seconds": OVERSHOOT_ALLOWANCE,
        "overhead_ceiling": OVERHEAD_CEILING,
        "responsiveness": responsiveness,
        "overhead": overhead_rows,
        "overhead_geomean": geomean,
        "overhead_timer_noise": noise,
        "skipped": skipped,
        "failures": failures,
    }
    from repro.bench.report import write_bench_report

    args.output = write_bench_report("anytime", report, output=args.output)
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
