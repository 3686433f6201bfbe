#!/usr/bin/env python
"""Measure the constants of ``auto``'s predicted-time rule.

:func:`repro.optimizer.api.choose_algorithm` runs C dpconv when its
per-``n`` wall time (:data:`repro.optimizer.api.DPCONV_C_MS`) is below
the top-down kernel's predicted time, ``ccp_estimate × ns/ccp``
(:data:`repro.optimizer.api.KERNEL_NS_PER_CCP`).  This script re-measures
both on the host at hand and prints them in the form the module keeps.

Per ``(shape, n)`` for ``n`` in :data:`N_RANGE` both engines run the
full ``optimize_request`` on ``attach_random_statistics(seed=1)``, best
of :data:`REPEAT` alternating runs after one warm-up (preemption only
adds time, so minima converge).

* ``DPCONV_C_MS[n]`` is the slower of chain-``n`` and cycle-``n``
  under C dpconv.  The choice is only close on sparse graphs: a denser
  graph costs dpconv more (more connected sets to settle and flush),
  but its #ccp, and with it the kernel's time, grows far faster.
* ``KERNEL_NS_PER_CCP`` is the median over all measured ``(shape, n)``
  of the kernel's best time divided by its exact #ccp.  Kernel runs
  above :data:`MAX_CCPS` are skipped.

Each cell keeps its best time over :data:`ROUNDS` passes of the whole
sweep, so a slow phase of the host does not land on one engine only.

A wrong constant costs speed, never the answer: both engines return the
exact optimum.

The sweep is fixed, so the printed table always has the committed
table's rows; its last row is the largest ``n`` ``auto`` may send to
dpconv.

Run:  PYTHONPATH=src python benchmarks/calibrate_auto.py

Needs the C kernel (``python -m repro.cli backends --build``); exits 1
without it.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.analysis.formulas import ccp_count
from repro.catalog.workload import attach_random_statistics
from repro.enumeration.counting import count_ccps
from repro.graph.shapes import grid_graph, make_shape
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.native import resolve_backend

SHAPES = ("chain", "cycle", "star", "clique")

#: Relation counts swept; one table row each.
N_RANGE = range(2, 17)

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


def _graphs(n):
    for shape in SHAPES:
        if shape == "cycle" and n < 3:
            continue
        yield f"{shape}-{n}", make_shape(shape, n), ccp_count(shape, n)
    if n in GRIDS:
        rows, cols = GRIDS[n]
        graph = grid_graph(rows, cols)
        yield f"grid-{rows}x{cols}", graph, count_ccps(graph)


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


def main():
    if resolve_backend(None) != "c":
        print("no C dpconv kernel loadable; run `repro.cli backends --build`")
        return 1
    cells = {}  # (n, label) -> [#ccp, dpconv ms, kernel ms or None]
    for _ in range(ROUNDS):
        for n in N_RANGE:
            for label, graph, ccps in _graphs(n):
                catalog = attach_random_statistics(graph, seed=1)
                timed = [OptimizationRequest(catalog, algorithm="dpconv")]
                if ccps <= MAX_CCPS:
                    timed.append(
                        OptimizationRequest(catalog, algorithm="tdmincutbranch")
                    )
                best = _best_ms(timed, REPEAT) + [None]
                cell = cells.setdefault((n, label), [ccps, best[0], best[1]])
                cell[1] = min(cell[1], best[0])
                if best[1] is not None:
                    cell[2] = min(cell[2], best[1])
    print(
        f"{'graph':>12} {'#ccp':>9} {'dpconv ms':>10} {'kernel ms':>10} "
        f"{'ns/ccp':>8}"
    )
    rows, per_ccp = {}, []
    for (n, label), (ccps, conv, kernel) in cells.items():
        line = f"{label:>12} {ccps:>9} {conv:>10.3f}"
        if kernel is not None:
            per_ccp.append(kernel * 1e6 / ccps)
            line += f" {kernel:>10.3f} {per_ccp[-1]:>8.0f}"
        print(line)
        if label.split("-")[0] in SPARSE:
            rows[n] = max(rows.get(n, 0.0), conv)
    print()
    print("DPCONV_C_MS = {")
    for n, ms in rows.items():
        print(f"    {n}: {ms:.3g},")
    print("}")
    print(f"KERNEL_NS_PER_CCP = {round(statistics.median(per_ccp))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
