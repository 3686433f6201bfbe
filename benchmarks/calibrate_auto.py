#!/usr/bin/env python
"""Measure the break-even table of ``auto``'s one rule.

:func:`repro.optimizer.api.choose_algorithm` runs C dpconv when the
request's exact #ccp, counted up to a cap, is above the break-even count
for its ``n`` (:data:`repro.optimizer.api.DPCONV_BREAK_EVEN_CCPS`).
This script re-measures that table on the host at hand and prints it in
the form the module keeps.

Per graph both engines run the full ``optimize_request``, best of
:data:`REPEAT` alternating runs after one warm-up (preemption only adds
time, so minima converge).  Each cell keeps its best time over
:data:`ROUNDS` passes of the whole sweep, so a slow phase of the host
does not land on one engine only.  The sweep is chains, cycles, stars
and cliques for ``n`` in :data:`N_RANGE`, a few grids, and for ``n`` in
:data:`RANDOM_N` a random tree and two random cyclic graphs from
:class:`~repro.catalog.workload.WorkloadGenerator`: the sparse traffic
where the choice is close.

* C top-down's time is fitted as ``a + b * #ccp`` (a fixed cost per
  request plus a cost per ccp) by least squares on the relative error
  over every top-down cell.  Kernel runs above :data:`MAX_CCPS` are
  skipped.
* C dpconv's time at ``n`` is the slower of chain-``n`` and cycle-``n``.
  A denser graph costs dpconv more (more connected sets to settle and
  flush), but its #ccp, and with it the kernel's time, grows far
  faster.
* The break-even count at ``n`` is the #ccp at which the fitted
  top-down time meets dpconv's: ``(dpconv_ms[n] - a) / b``, at least
  chain-``n``'s #ccp.  Top-down beats dpconv on every chain of the sweep,
  but the fit's fixed cost overstates top-down on the smallest graphs:
  at ``n = 2`` it puts the break-even below the one ccp every connected
  pair has, which would send every 2-relation request to dpconv.

A wrong entry costs speed, never the answer: both engines return the
exact optimum.  The sweep is fixed, so the printed table always has the
committed table's keys; its last key is the largest ``n`` ``auto`` and
admission let dpconv take on.

Run:  PYTHONPATH=src python benchmarks/calibrate_auto.py

Needs the C kernel (``python -m repro.cli backends --build``); exits 1
without it.
"""

from __future__ import annotations

import sys
import time

from repro.analysis.formulas import ccp_count
from repro.catalog.workload import WorkloadGenerator, attach_random_statistics
from repro.enumeration.counting import count_ccps
from repro.graph.shapes import grid_graph, make_shape
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.native import resolve_backend

SHAPES = ("chain", "cycle", "star", "clique")

#: Relation counts swept; one table row each.
N_RANGE = range(2, 17)

#: Relation counts of the random trees and cyclic graphs.
RANDOM_N = range(8, 15)

#: Timed runs per cell and pass, and passes of the whole sweep.
REPEAT = 5
ROUNDS = 3

#: Largest #ccp the kernel is timed on.
MAX_CCPS = 300_000

#: Shapes whose dpconv time makes a table row (see the module docstring).
SPARSE = ("chain", "cycle")

#: Grids of n vertices (rows x cols), as a shape without a closed form.
GRIDS = {
    8: (2, 4), 9: (3, 3), 10: (2, 5), 12: (3, 4), 14: (2, 7), 15: (3, 5),
    16: (4, 4),
}


def _sweep():
    """``(n, label, catalog, #ccp)`` for every graph, fixed by its seeds."""
    generator = WorkloadGenerator(seed=1)
    for n in N_RANGE:
        for shape in SHAPES:
            if shape == "cycle" and n < 3:
                continue
            catalog = attach_random_statistics(make_shape(shape, n), seed=1)
            yield n, f"{shape}-{n}", catalog, ccp_count(shape, n)
        if n in GRIDS:
            rows, cols = GRIDS[n]
            graph = grid_graph(rows, cols)
            catalog = attach_random_statistics(graph, seed=1)
            yield n, f"grid-{rows}x{cols}", catalog, count_ccps(graph)
        if n in RANDOM_N:
            tree = generator.random_acyclic(n)
            yield n, f"tree-{n}", tree.catalog, count_ccps(tree.graph)
            for extra in (1, n // 2):
                cyclic = generator.random_cyclic(n, n - 1 + extra)
                yield n, f"cyc-{n}+{extra}", cyclic.catalog, count_ccps(cyclic.graph)


def _best_ms(requests, repeat):
    """Best wall time per request over alternating runs, in ms."""
    for request in requests:
        optimize_request(request)
    best = [float("inf")] * len(requests)
    for _ in range(repeat):
        for index, request in enumerate(requests):
            began = time.perf_counter()
            optimize_request(request)
            best[index] = min(best[index], (time.perf_counter() - began) * 1e3)
    return best


def fit_fixed_plus_per_ccp(points):
    """``(a, b)`` minimising the summed squared relative error of
    ``a + b * ccps`` against ``ms`` over ``points`` of ``(ccps, ms)``.

    Dividing each residual by its ``ms`` makes the problem ordinary least
    squares on rows ``(1/ms, ccps/ms)`` with target 1; this solves its
    2x2 normal equations.
    """
    s11 = sum(1 / ms**2 for _, ms in points)
    s12 = sum(ccps / ms**2 for ccps, ms in points)
    s22 = sum((ccps / ms) ** 2 for ccps, ms in points)
    r1 = sum(1 / ms for _, ms in points)
    r2 = sum(ccps / ms for ccps, ms in points)
    det = s11 * s22 - s12**2
    return (r1 * s22 - r2 * s12) / det, (s11 * r2 - s12 * r1) / det


def main():
    if resolve_backend(None) != "c":
        print("no C dpconv kernel loadable; run `repro.cli backends --build`")
        return 1
    sweep = list(_sweep())
    cells = {}  # label -> [n, #ccp, dpconv ms, kernel ms or None]
    for _ in range(ROUNDS):
        for n, label, catalog, ccps in sweep:
            timed = [OptimizationRequest(catalog, algorithm="dpconv")]
            if ccps <= MAX_CCPS:
                timed.append(OptimizationRequest(catalog, algorithm="tdmincutbranch"))
            best = _best_ms(timed, REPEAT) + [None]
            cell = cells.setdefault(label, [n, ccps, best[0], best[1]])
            cell[2] = min(cell[2], best[0])
            if best[1] is not None:
                cell[3] = min(cell[3], best[1])
    a, b = fit_fixed_plus_per_ccp(
        [(ccps, kernel) for _, ccps, _, kernel in cells.values() if kernel is not None]
    )
    print(
        f"{'graph':>12} {'#ccp':>9} {'dpconv ms':>10} {'kernel ms':>10} "
        f"{'fit ms':>8} {'fit err':>8}"
    )
    dpconv_ms = {}
    for label, (n, ccps, conv, kernel) in cells.items():
        line = f"{label:>12} {ccps:>9} {conv:>10.3f}"
        if kernel is not None:
            fitted = a + b * ccps
            line += f" {kernel:>10.3f} {fitted:>8.3f} {fitted / kernel - 1:>+8.0%}"
        print(line)
        if label.split("-")[0] in SPARSE:
            dpconv_ms[n] = max(dpconv_ms.get(n, 0.0), conv)
    print()
    print(f"C top-down fit: a = {a:.4f} ms, b = {b * 1e6:.1f} ns/ccp")
    print("DPCONV_BREAK_EVEN_CCPS: Dict[int, int] = {")
    for n, ms in dpconv_ms.items():
        floor = ccp_count("chain", n)
        print(f"    {n}: {max(floor, int((ms - a) / b))},  # {ms:.3g} ms")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
