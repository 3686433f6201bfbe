"""End-to-end benchmark: one library and one server workload, oracle-checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # both workloads
    python3 benchmarks/e2e/run.py --workload serve_churn --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --workload compile_sparse --trace 1
    python3 benchmarks/e2e/run.py --repeat 10           # calibration table
    python3 benchmarks/e2e/run.py --smoke               # harness self-test

Each workload runs in fresh processes: the library loop of
``compile_load.py`` or the real server driven by ``serve_load.py``.
A run is a number of rounds, each sending the same requests; a
request's time is its best over the rounds.  Every plan is checked
against the oracle of ``oracle.py``.  With ``--trace 0`` the result
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
makes a separate, shorter run with the layer wrappers of ``spans.py``
installed and reports the per-layer metrics.  The last line of the
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any
operation failed or any plan was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gen
import oracle
from common import (
    COLD_STARTS,
    HERE,
    MIN_ROUNDS,
    ROOT,
    RUNS,
    SIZING_QPS,
    SRC,
    best_per_key,
    child_env,
    close_enough,
    die,
    geomean,
    percentile,
    quartiles,
    read_json,
    write_json,
)

COMPILE = ("compile_sparse",)
PINS = os.path.join(HERE, "pins.json")

#: Requests in the serve list every round replays: 15 lie beyond its p99.
ROUND_COUNT = 1500

#: The serving SLO ``bench_frontdoor_qps`` gates on; printed, not a metric.
SLO_P99_MS = 250.0


def _python(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], env=child_env(), check=True, cwd=ROOT, **kwargs
    )


def prebuild():
    """Build or load the C kernel; return the environment stanza."""
    out = _python(
        os.path.join(HERE, "compile_load.py"), "prebuild", capture_output=True, text=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def shrink(inputs, keep):
    """The first ``keep`` queries of every class (``--smoke`` only)."""
    small = dict(inputs)
    if "classes" not in inputs:
        small["queries"] = inputs["queries"][:keep]
        return small
    remap, queries, classes = {}, [], {}
    for name, (lo, hi) in inputs["classes"].items():
        start = len(queries)
        for index in range(lo, min(hi, lo + keep)):
            remap[str(index)] = str(len(queries))
            queries.append(inputs["queries"][index])
        classes[name] = [start, len(queries)]
    small["queries"], small["classes"] = queries, classes
    small["drifted"] = {
        remap[i]: q for i, q in inputs["drifted"].items() if i in remap
    }
    return small


def cold_start_seconds(query_path, algorithm):
    """Fresh interpreter until its first ``optimize_request`` returns."""
    began = time.perf_counter()
    out = _python(
        os.path.join(HERE, "compile_load.py"),
        "first-call",
        query_path,
        algorithm,
        capture_output=True,
        text=True,
    )
    return float(out.stdout.strip().splitlines()[-1]) - began


def compile_passes(inputs, seconds, least):
    """Whole passes over the pool that fill ``seconds`` at the sizing rate."""
    pool = len(inputs["queries"])
    return max(least, round(seconds * SIZING_QPS[inputs["workload"]] / pool))


def best_latencies(out):
    """Each query's best call time over a compile run, in pool order."""
    return best_per_key(zip((index for index, _ in out["calls"]), out["samples"]))


def _compile_run(inputs_path, passes, trace, tag):
    spec_path = os.path.join(RUNS, f"spec-{tag}.json")
    out_path = os.path.join(RUNS, f"out-{tag}.json")
    write_json(
        spec_path,
        {"inputs": inputs_path, "passes": passes, "trace": trace, "out": out_path},
    )
    _python(os.path.join(HERE, "compile_load.py"), "run", spec_path)
    return read_json(out_path)


def _check_calls(calls, costs):
    wrong, ratios = [], []
    for index, cost in calls:
        best = costs[str(index)]
        if cost is None:
            continue
        if not close_enough(cost, best):
            wrong.append(f"query {index}: cost {cost!r} != optimum {best!r}")
        ratios.append(cost / best)
    return wrong, ratios


def run_compile(inputs, inputs_path, costs, seconds, trace, smoke):
    # The pool is fixed, so its percentiles are exact and need no samples
    # beyond them: the p99 of 256 queries is the third slowest.
    tag = f"{inputs['workload']}-{inputs['seed']}"
    if trace:
        # Layer metrics carry no bound: a quarter of the time each, untraced and traced.
        quarter = compile_passes(inputs, seconds / 4, 1)
        timed = _compile_run(inputs_path, quarter, False, tag + "-t0")
        traced = _compile_run(inputs_path, quarter, True, tag + "-t1")
        failed, failures = 0, []
        for out in (timed, traced):
            wrong = _check_calls(out["calls"], costs)[0]
            failed += out["error_count"] + len(wrong)
            failures += out["errors"] + wrong
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = (
            percentile(best_latencies(traced), 0.5, 0)
            / percentile(best_latencies(timed), 0.5, 0)
            - 1
        )
        attempted = len(timed["calls"]) + len(traced["calls"])
        return metrics, attempted, failed, failures, {"backend": traced["backend"]}
    first = os.path.join(RUNS, f"first-{tag}.json")
    write_json(first, inputs["queries"][0])
    starts = [cold_start_seconds(first, inputs["algorithm"]) for _ in range(COLD_STARTS)]
    passes = compile_passes(inputs, seconds, 1 if smoke else MIN_ROUNDS)
    out = _compile_run(inputs_path, passes, False, tag)
    wrong, ratios = _check_calls(out["calls"], costs)
    best = best_latencies(out)
    metrics = {
        "setup_s": statistics.median(starts),
        "latency_p50_ms": percentile(best, 0.50, 0) * 1e3,
        "latency_p99_ms": percentile(best, 0.99, 0) * 1e3,
        # Little's law: one call is always in flight.
        "throughput_qps": len(best) / sum(best),
        "plan_cost_ratio": geomean(ratios),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    info = {"backend": out["backend"], "samples": f"{len(best)} queries x {passes} passes"}
    failed = out["error_count"] + len(wrong)
    return metrics, len(out["calls"]), failed, out["errors"] + wrong, info


def serve_rounds(inputs, seconds, least):
    """Replays of the request list that fill ``seconds`` at the sizing rate."""
    return max(least, round(seconds * SIZING_QPS[inputs["workload"]] / ROUND_COUNT))


def run_serve(inputs, inputs_path, oracle_path, seconds, trace, smoke):
    tag = f"{inputs['workload']}-{inputs['seed']}"
    spec_path = os.path.join(RUNS, f"spec-{tag}.json")
    out_path = os.path.join(RUNS, f"out-{tag}.json")
    # A traced run is a quarter of the time untraced and a quarter traced.
    rounds = serve_rounds(inputs, seconds / 4 if trace else seconds, 1 if smoke else MIN_ROUNDS)
    write_json(
        spec_path,
        {
            "inputs": inputs_path,
            "oracle": oracle_path,
            "trace": trace,
            "rounds": rounds,
            "round_count": 50 if smoke else ROUND_COUNT,
            "warm_count": 50 if smoke else 500,
            "min_beyond": 0 if smoke else 10,
            "out": out_path,
        },
    )
    _python(os.path.join(HERE, "serve_load.py"), spec_path)
    phases = read_json(out_path)["phases"]
    timed = phases["timed"]
    failures = list(timed["failures"])
    failed = timed["failure_count"]
    attempted = timed["attempted"]
    info = {"samples": timed["samples"], "rungs": timed["rungs"]}
    if trace:
        traced = phases["traced"]
        failures += traced["failures"]
        failed += traced["failure_count"]
        attempted += traced["attempted"]
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = (
            traced["latency_p50_ms"] / timed["latency_p50_ms"] - 1
        )
        return metrics, attempted, failed, failures, info
    metrics = {
        name: timed[name]
        for name in (
            "setup_s",
            "latency_p50_ms",
            "latency_p99_ms",
            "throughput_qps",
            "plan_cost_ratio",
            "peak_rss_mb",
        )
    }
    info["slo_pass"] = metrics["latency_p99_ms"] <= SLO_P99_MS
    return metrics, attempted, failed, failures, info


def run_workload(workload, seed, seconds, trace, declared, environment, smoke=False):
    """Run one workload; returns ``(result_line, info)``."""
    structures_dir = os.path.join(RUNS, "structures")
    pins = read_json(PINS)
    pinned = gen.digest(gen.make_inputs(workload, gen.DEFAULT_SEED, structures_dir))
    if pinned != pins["digests"][workload]:
        die(
            f"{workload}: the default-seed inputs hash to {pinned[:16]}, not the "
            f"pinned {pins['digests'][workload][:16]}; the generator drifted"
        )
    inputs = gen.make_inputs(workload, seed, structures_dir)
    if smoke:
        inputs = shrink(inputs, 16)
    input_digest = gen.digest(inputs)
    inputs_path = os.path.join(RUNS, f"inputs-{workload}-{seed}.json")
    write_json(inputs_path, inputs)
    costs = oracle.oracle_costs(inputs)
    if workload in COMPILE:
        metrics, attempted, failed, failures, info = run_compile(
            inputs, inputs_path, costs, seconds, trace, smoke
        )
    else:
        costs_path = os.path.join(RUNS, f"costs-{workload}-{seed}.json")
        write_json(costs_path, costs)
        metrics, attempted, failed, failures, info = run_serve(
            inputs, inputs_path, costs_path, seconds, trace, smoke
        )
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    values = {name: float(metrics.get(name, 0.0)) for name in names}
    info.update(
        workload=workload,
        seed=seed,
        trace=trace,
        input_digest=input_digest,
        environment=environment,
        failures=failures[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    write_json(os.path.join(RUNS, f"result-{workload}-{seed}-{int(trace)}.json"), {**result, "info": info})
    return result, info


def report(result, info, declared_backend):
    print(
        f"workload {info['workload']} seed {info['seed']} trace {int(info['trace'])}: "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"inputs {info['input_digest'][:16]}"
    )
    environment = info["environment"]
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    if environment.get("backend") != declared_backend:
        print(
            f"warning: resolved backend {environment.get('backend')!r} differs from "
            f"the {declared_backend!r} the benchmark was calibrated with"
        )
    if "samples" in info:
        print(f"samples: {info['samples']}")
    if "slo_pass" in info:
        p99 = result["metrics"]["latency_p99_ms"]["value"]
        verdict = "pass" if info["slo_pass"] else "FAIL"
        print(f"slo: p99 {p99:.2f} ms <= {SLO_P99_MS:g} ms: {verdict}")
    if "rungs" in info:
        print(f"rungs: {json.dumps(info['rungs'], sort_keys=True)}")
    for failure in info["failures"]:
        print(f"failure: {failure}")
    print(f"failed_frac: {result['failed'] / result['attempted']:.6f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}")


def calibrate(workloads, seed, seconds, repeat, declared, environment):
    """``--repeat``: each metric's median and quartiles over seeds."""
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    table = {}
    ok = True
    for workload in workloads:
        values = {}
        for offset in range(repeat):
            result, _info = run_workload(workload, seed + offset, seconds, False, declared, environment)
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed + offset}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ), flush=True)
        for name, series in values.items():
            q1, med, q3 = quartiles(series)
            spread = (q3 - q1) / med if med else 0.0
            table[f"{workload}/{name}"] = {
                "q1": q1, "median": med, "q3": q3, "spread": spread, "bound": bounds[name],
            }
    print(f"{'workload/metric':45s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for key, row in table.items():
        flag = "" if key.endswith("/setup_s") or row["spread"] < row["bound"] / 3 else "  > bound/3"
        print(
            f"{key:45s} {row['q1']:12.4f} {row['median']:12.4f} {row['q3']:12.4f} "
            f"{row['spread']:8.4f} {row['bound']:6.2f}{flag}"
        )
    write_json(os.path.join(RUNS, "calibration.json"), table)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="calibrate over this many seeds")
    parser.add_argument("--smoke", action="store_true", help="short self-test of every workload and mode")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        die(f"no optimizer sources under {SRC}; run from a full checkout")
    declared = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or declared["run_seconds"]
    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    os.makedirs(RUNS, exist_ok=True)
    environment = prebuild()
    if args.repeat:
        return 0 if calibrate(workloads, args.seed, seconds, args.repeat, declared, environment) else 1
    modes = (0, 1) if args.smoke else (args.trace,)
    declared_backend = read_json(PINS)["backend"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in modes:
            result, info = run_workload(
                workload, args.seed, 0.6 if args.smoke else seconds, bool(trace),
                declared, environment, smoke=args.smoke,
            )
            report(result, info, declared_backend)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 and len(modes) == 1 else f"{workload}/"
            for name, metric in result["metrics"].items():
                combined["metrics"][prefix + name] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
