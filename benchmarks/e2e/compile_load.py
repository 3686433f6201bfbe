"""The library process of the compile workloads.

Run by ``run.py`` in a fresh interpreter, in one of three modes:

``prebuild``
    Build (or load) the C kernel and print the environment stanza as
    JSON.  Runs before any timed window: a host compiles the kernel
    once, not once per run.
``first-call QUERY_JSON ALGORITHM``
    Cold start: optimize one query and print ``time.perf_counter()``
    the moment ``optimize_request`` returns.  The caller subtracts its
    own reading taken just before starting this interpreter.
``run SPEC_JSON``
    The measured loop: one caller, back-to-back ``optimize_request``
    calls over the pool in the spec's number of whole passes, each in
    the same shuffled order (fixed per workload, like its graphs).
    With ``trace`` the layer wrappers of :mod:`spans` are installed
    first and each call becomes a root span.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

from common import catalog_of, cost_model_of, read_json, write_json


def prebuild():
    import repro.cli  # noqa: F401  (byte-compiles the server's modules too)
    import repro.service  # noqa: F401
    from repro.bench.report import bench_environment
    from repro.optimizer._native_build import load_c_kernel

    load_c_kernel(build=True)
    environment = bench_environment()
    environment["nproc"] = os.cpu_count()
    print(json.dumps(environment))


def first_call(query_path, algorithm):
    from repro.optimizer.api import OptimizationRequest, optimize_request

    query = read_json(query_path)
    request = OptimizationRequest(
        catalog_of(query), algorithm=algorithm, cost_model=cost_model_of(query)
    )
    optimize_request(request)
    print(repr(time.perf_counter()), flush=True)


def _layer_metrics(calls):
    """Per-layer metrics from this process's spans (per call, means)."""
    import spans

    records = spans.SPANS
    selfs = spans.self_seconds(records)
    total = {}
    engines = {}
    sums = {"partition_s": 0.0, "partition_calls": 0, "partition_ccps": 0}
    memo = evaluations = ccps = 0
    call_time = call_self = 0.0
    for index, span in enumerate(records):
        name, duration, counts = span[0], span[2] - span[1], span[5] or {}
        total[name] = total.get(name, 0.0) + duration
        for key in sums:
            sums[key] += counts.get(key, 0)
        if name == "call":
            call_time += duration
            call_self += selfs[index]
        elif name == "optimizer.optimize":
            total["optimize.self"] = total.get("optimize.self", 0.0) + selfs[index]
            seconds, emitted = engines.get(counts["engine"], (0.0, 0))
            engines[counts["engine"]] = (seconds + duration, emitted + counts["ccps"])
            memo += counts["memo_entries"]
            evaluations += counts["cost_evaluations"]
            ccps += counts["ccps"]
    metrics = {
        "optimizer.setup_ms": total.get("optimizer.setup", 0.0) / calls * 1e3,
        "optimizer.enumerate_self_ms": total.get("optimize.self", 0.0) / calls * 1e3,
        "enumeration.partition_self_ms": sums["partition_s"] / calls * 1e3,
        "enumeration.partition_calls": sums["partition_calls"] / calls,
        "enumeration.ccps": sums["partition_ccps"] / calls,
        "plan.bulk_load_ms": total.get("plan.bulk_load", 0.0) / calls * 1e3,
        "plan.extract_ms": total.get("plan.extract", 0.0) / calls * 1e3,
        "plan.memo_entries": memo / calls,
        "cost.evaluations_per_ccp": evaluations / ccps if ccps else 0.0,
        "native.load_ms": total.get("native.load", 0.0) * 1e3,
        "unattributed_frac": call_self / call_time if call_time else 0.0,
    }
    for engine, (seconds, emitted) in engines.items():
        metrics[f"optimizer.ns_per_ccp.{engine}"] = seconds / emitted * 1e9 if emitted else 0.0
    return metrics


def run(spec_path):
    spec = read_json(spec_path)
    inputs = read_json(spec["inputs"])
    if spec["trace"]:
        import spans

        spans.install_compile()
    from repro.optimizer import native
    from repro.optimizer.api import OptimizationRequest, optimize_request

    def fresh_requests():
        return [
            OptimizationRequest(
                catalog_of(q), algorithm=inputs["algorithm"], cost_model=cost_model_of(q)
            )
            for q in inputs["queries"]
        ]

    # Lazy set-up is paid before the window: the C kernel is loaded and
    # one call warms the interpreter's caches.
    backend = native.resolve_backend(None) or "python"
    optimize_request(fresh_requests()[0])
    if spec["trace"]:
        preload = sum(s[2] - s[1] for s in spans.SPANS if s[0] == "native.load")
        spans.reset()
    # The call order, like the graphs, is fixed per workload (see gen.py),
    # and a run is a whole number of passes in that one order, so every
    # commit optimizes the same multiset of queries in the same order and
    # a query's calls lie a whole pass apart.  Each pass builds its own
    # request objects, so no call can reuse state an earlier one left.
    order = list(range(len(inputs["queries"])))
    random.Random(f"e2e/{inputs['workload']}/order").shuffle(order)
    samples, calls = [], []
    errors = []
    clock = time.perf_counter
    for _ in range(spec["passes"]):
        requests = fresh_requests()
        for index in order:
            if spec["trace"]:
                root, token = spans.open_span("call")
            began = clock()
            try:
                cost = optimize_request(requests[index]).plan.cost
            except Exception as exc:  # counted as a failure, never fatal
                cost = None
                errors.append(f"{type(exc).__name__}: {exc}")
            samples.append(clock() - began)
            if spec["trace"]:
                spans.close_span(root, token)
            calls.append([index, cost])
    result = {
        "samples": samples,
        "calls": calls,
        "errors": errors[:20],
        "error_count": len(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": backend,
    }
    if spec["trace"]:
        result["layers"] = _layer_metrics(len(samples))
        result["layers"]["native.load_ms"] += preload * 1e3
    write_json(spec["out"], result)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "prebuild":
        prebuild()
    elif mode == "first-call":
        first_call(sys.argv[2], sys.argv[3])
    elif mode == "run":
        run(sys.argv[2])
    else:
        sys.exit(f"unknown mode {mode!r}")
