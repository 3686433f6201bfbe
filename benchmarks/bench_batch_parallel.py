#!/usr/bin/env python
"""Batch-execution benchmark: serial vs. process backends.

CPython's GIL serializes CPU-bound enumeration across threads, so only
a process boundary lets a batch use several cores.  The process backend
(``executor="process"``) ships each request to a worker process through
:mod:`repro.serialize` and genuinely uses one core per worker.  This
benchmark drives an identical batch of distinct clique (and optionally
cycle) queries through both backends on fresh services — no cache
effects — and reports wall-clock plus the process-over-serial speedup.

On a multi-core host the process backend must be at least 1.5x faster
than serial for a >= 8-item batch of clique-12 queries; pass
``--require-speedup`` to turn that floor into the exit status (it is
skipped automatically on single-core machines, where no parallel
speedup is physically possible).  Result parity across backends is
always enforced.

Run:  python benchmarks/bench_batch_parallel.py [--n 12] [--count 8]
      [--workers N] [--shape clique] [--algorithm dpccp]
      [--require-speedup]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.catalog.workload import WorkloadGenerator
from repro.optimizer.api import OptimizationRequest
from repro.service import OptimizerService

SPEEDUP_FLOOR = 1.5  # acceptance: process >= 1.5x over serial (multi-core)


def build_requests(shape: str, n: int, count: int, algorithm: str):
    """Return ``count`` distinct same-shape requests (distinct statistics)."""
    requests = []
    for seed in range(count):
        instance = WorkloadGenerator(seed=20110411 + seed).fixed_shape(shape, n)
        requests.append(
            OptimizationRequest(
                query=instance, algorithm=algorithm, tag=f"{shape}-{seed}"
            )
        )
    return requests


def run_backend(executor: str, requests, workers: int):
    """Run the batch on a fresh service; return (wall_seconds, results)."""
    service = OptimizerService()
    started = time.perf_counter()
    results = service.optimize_batch(
        requests, workers=workers, executor=executor
    )
    wall = time.perf_counter() - started
    failed = [r.tag for r in results if not r.ok]
    if failed:
        raise SystemExit(f"FAIL: {executor} backend failed items: {failed}")
    return wall, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", default="clique", help="query graph shape")
    parser.add_argument("--n", type=int, default=12, help="relations per query")
    parser.add_argument("--count", type=int, default=8, help="batch size")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool width (0 = one per detected core, capped at 8)",
    )
    parser.add_argument(
        "--algorithm",
        default="dpccp",
        help="registry algorithm (dpccp carries the smallest clique constant)",
    )
    parser.add_argument(
        "--require-speedup",
        action="store_true",
        help=f"exit non-zero unless process >= {SPEEDUP_FLOOR}x over serial "
        "(skipped on single-core hosts)",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    workers = args.workers if args.workers > 0 else min(8, cores)
    requests = build_requests(args.shape, args.n, args.count, args.algorithm)
    print(
        f"batch parallel bench: {args.count} x {args.shape}-{args.n} "
        f"({args.algorithm}), workers={workers}, cores={cores}"
    )

    walls = {}
    baseline = None
    for executor in ("serial", "process"):
        wall, results = run_backend(executor, requests, workers)
        walls[executor] = wall
        costs = [round(r.cost, 6) for r in results]
        if baseline is None:
            baseline = costs
        elif costs != baseline:
            print(
                f"FAIL: {executor} backend returned different plan costs",
                file=sys.stderr,
            )
            return 1
        print(f"  {executor:8s} {wall:8.2f}s")

    speedup = walls["serial"] / max(walls["process"], 1e-9)
    print(f"process speedup over serial: {speedup:.2f}x")
    if cores < 2:
        print("single-core host: parallel speedup not applicable, floor skipped")
        return 0
    if args.require_speedup and speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: process speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor on a {cores}-core host",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: backends agree on all {args.count} plans"
        + (
            f"; process cleared the {SPEEDUP_FLOOR}x floor"
            if args.require_speedup
            else ""
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
