#!/usr/bin/env python
"""The benchmark gates: one table, one runner.

Each row of :data:`GATES` times a candidate against a baseline on fixed
workloads and fails when the candidate misses its floor or ceiling or
when any parity check between the two answers fails.  The core that runs
a row (alternating paired runs, best-of-N or median pair ratio, geomean,
the plain-vs-plain control probe, skip notices, ``BENCH_<name>.json``
and the exit status) is :mod:`repro.bench.gate`.

Run:  python benchmarks/gates.py [NAME ...]     (every gate when no name)

The only input is gate names; every size, repeat count and threshold is
a constant in the table.  Exit status is non-zero when a gate fails.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import sys
import time
from typing import List

from repro import serialize
from repro.analysis.formulas import ccp_count
from repro.bench.gate import Case, Gate, run_gates
from repro.bench.timing import Sample
from repro.catalog.statistics import Catalog
from repro.catalog.workload import WorkloadGenerator, uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
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
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator, tdpgsub_reference
from repro.plan.validation import validate_plan
from repro.service import (
    FrontDoor,
    FrontDoorConfig,
    OptimizerService,
    ResilienceConfig,
)

SEED = 20110411


def _catalog(graph):
    """Bounded power-of-two statistics: cardinality arithmetic is exact,
    so engines must agree bit for bit, and C_out stays finite even on
    long chains."""
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


def _optimize(optimizer, run=None):
    """Time one optimization, not building or tearing down the optimizer."""
    started = time.perf_counter()
    plan = run() if run is not None else optimizer.optimize()
    return Sample(time.perf_counter() - started, (optimizer, plan))


def _kernel(catalog, backend="off", cost_model=CoutCostModel):
    """The top-down kernel: the python one unless a row asks for C.  Rows
    that measure the python kernel pin it, or they would silently start
    timing C wherever a kernel is built."""
    return _optimize(TopDownPlanGenerator(
        catalog, MinCutBranch, cost_model(), native_backend=backend
    ))


def _dpconv(catalog, backend):
    return _optimize(DPconvPlanGenerator(
        catalog, cost_model=CoutCostModel(), native_backend=backend
    ))


# ----------------------------------------------------------------------
# service: a warm plan-cache hit is >= 10x faster than the cold miss
# ----------------------------------------------------------------------


def _service_cases() -> List[Case]:
    shapes, warm_iters = ["chain", "star", "clique"], 25
    service = OptimizerService(cache_capacity=64)
    generator = WorkloadGenerator(seed=SEED)

    def warm(catalog):
        result = service.optimize(catalog)
        assert result.cache_hit, "repeat optimization must hit the cache"
        return result

    def parity(cold, warm_result, last):
        if cold.cache_hit:
            yield "first optimization must be a cache miss"
        if abs(warm_result.cost - cold.cost) >= 1e-6 * max(1.0, abs(cold.cost)):
            yield f"warm cost {warm_result.cost!r} != cold cost {cold.cost!r}"
        if last:  # every shape has run: the shared counters must add up
            snapshot = service.stats_snapshot()
            cache, totals = snapshot["cache"], snapshot["totals"]
            if cache["hits"] != len(shapes) * warm_iters:
                yield f"expected {len(shapes) * warm_iters} hits, got {cache['hits']}"
            if cache["misses"] != len(shapes):
                yield f"expected {len(shapes)} misses, got {cache['misses']}"
            if totals["requests"] != len(shapes) * (1 + warm_iters):
                yield f"expected {len(shapes) * (1 + warm_iters)} requests, got {totals['requests']}"

    cases = []
    for shape in shapes:
        catalog = generator.fixed_shape(shape, 14).catalog
        cases.append(Case(
            f"{shape}-14",
            baseline=functools.partial(service.optimize, catalog),
            candidate=functools.partial(warm, catalog),
            baseline_repeat=1,
            repeat=warm_iters,
            parity=functools.partial(parity, last=shape == shapes[-1]),
            gated=shape == "clique",
        ))
    return cases


# ----------------------------------------------------------------------
# batch: the process executor is >= 1.5x faster than serial, in the
# median of alternating pairs (one serial run alone swings ~1.8x between
# runs on a 2-core host)
# ----------------------------------------------------------------------


def _batch_cases() -> List[Case]:
    requests = [
        OptimizationRequest(
            query=WorkloadGenerator(seed=SEED + seed).fixed_shape("clique", 12),
            algorithm="dpccp",
            tag=f"clique-{seed}",
        )
        for seed in range(8)
    ]
    workers = min(8, os.cpu_count() or 1)

    def parity(serial, process):
        for executor, results in (("serial", serial), ("process", process)):
            failed = [r.tag for r in results if not r.ok]
            if failed:
                yield f"{executor} executor failed items: {failed}"
        if [round(r.cost, 6) for r in serial] != [round(r.cost, 6) for r in process]:
            yield "process executor returned different plan costs"

    def batch(executor):
        # A fresh service per run: a warm plan cache would answer it.
        return OptimizerService().optimize_batch(requests, workers=workers, executor=executor)

    return [Case(
        f"8 x clique-12, {workers} workers",
        baseline=functools.partial(batch, "serial"),
        candidate=functools.partial(batch, "process"),
        parity=parity,
        repeat=5,
    )]


# ----------------------------------------------------------------------
# resilience: an over-budget clique is answered by the heuristic ladder
# in < 10% of the exact time
# ----------------------------------------------------------------------

_RESILIENCE_N, _RESILIENCE_BUDGET = 12, 10_000


def _resilience_catalog():
    return WorkloadGenerator(seed=SEED).fixed_shape("clique", _RESILIENCE_N).catalog


def _serve(catalog, budget=None, **overrides):
    """A leg on a fresh service, built outside the timed call."""
    config = ResilienceConfig(max_ccp_budget=budget) if budget else None
    service = OptimizerService(resilience=config)
    return service, functools.partial(service.optimize, catalog, **overrides)


def _ladder_cases() -> List[Case]:
    catalog, physical = _resilience_catalog(), PhysicalCostModel()
    expected_ccps = ccp_count("clique", _RESILIENCE_N)

    # Both legs name DPccp: it has no cooperative budget, so the
    # over-budget leg skips the anytime rung and reaches GOO, and the
    # exact leg times the paper's bottom-up baseline.
    legs = dict(cost_model=physical, algorithm="dpccp")
    _, exact_leg = _serve(catalog, **legs)
    service, degraded_leg = _serve(catalog, _RESILIENCE_BUDGET, **legs)

    def parity(exact, degraded):
        exact.plan.validate()
        degraded.plan.validate()
        details = degraded.details
        if expected_ccps <= _RESILIENCE_BUDGET:
            yield f"clique #ccp {expected_ccps} does not exceed the budget"
        if details.get("degraded") != 1:
            yield "over-budget clique was not served degraded"
        if details.get("rung") != "goo":
            yield f"expected the goo rung for a clique, got {details.get('rung')!r}"
        if details.get("degrade_reason") != "over_budget":
            yield f"expected reason 'over_budget', got {details.get('degrade_reason')!r}"
        if details.get("admission_estimate") != expected_ccps:
            yield (
                f"admission estimate {details.get('admission_estimate')} "
                f"!= closed-form #ccp {expected_ccps}"
            )
        # The heuristics optimize their own C_out-style objective whatever
        # the request's model, so the sanity floor is the C_out optimum.
        cout_exact = OptimizerService().optimize(catalog, algorithm="dpccp")
        if degraded.cost < cout_exact.cost * (1 - 1e-9):
            yield "degraded plan costs less than the exact optimum"
        if service.stats_snapshot()["totals"]["degraded"] != 1:
            yield "degraded counter did not record the serving"

    return [Case(
        f"clique-{_RESILIENCE_N}",
        baseline=exact_leg,
        candidate=degraded_leg,
        parity=parity,
    )]


# ----------------------------------------------------------------------
# observability: tracing costs < 5% on the warm-cache path
# ----------------------------------------------------------------------


def _observability_cases() -> List[Case]:
    count = 32
    requests = [
        OptimizationRequest(query=instance, tag=f"q{i}")
        for i, instance in enumerate(
            WorkloadGenerator(seed=SEED).series("clique", [12], per_size=count)
        )
    ]
    traced = OptimizerService(cache_capacity=2 * count, trace_capacity=2 * count)
    untraced = OptimizerService(cache_capacity=2 * count, tracing=False)

    def parity(_untraced, _traced):
        store = traced.traces
        if len(store) != store.capacity:
            yield f"trace store holds {len(store)} traces, expected its capacity {store.capacity}"
        last = store.last()
        if last is None or last.find("cache_lookup") is None:
            yield "warm-path trace is missing its cache_lookup span"
        if (
            untraced.stats_snapshot()["totals"]["requests"]
            != traced.stats_snapshot()["totals"]["requests"]
        ):
            yield "the two services did not serve identical workloads"

    # The warm-up run fills both caches; every timed pass is warm.
    return [Case(
        f"{count} x clique-12",
        baseline=functools.partial(untraced.optimize_batch, requests, executor="serial"),
        candidate=functools.partial(traced.optimize_batch, requests, executor="serial"),
        repeat=60,
        parity=parity,
    )]


# ----------------------------------------------------------------------
# kernel: the iterative kernel is >= 1.3x faster than the paper's
# recursion, with identical plans, and survives a deep chain
# ----------------------------------------------------------------------


def _reference(catalog):
    """The paper's recursion fills the memo; the plan is extracted the way
    ``optimize()`` does."""
    optimizer = TopDownPlanGenerator(catalog, MinCutBranch, CoutCostModel())
    root = catalog.graph.all_vertices

    def run():
        tdpgsub_reference(optimizer, root)
        return optimizer.builder.memo.extract_plan(root)

    return _optimize(optimizer, run)


def _kernel_parity(reference, kernel):
    (ref, ref_plan), (fast, fast_plan) = reference, kernel
    if fast.last_kernel != "fast":
        yield f"optimize() reported {fast.last_kernel}"
    if ref_plan != fast_plan:
        yield "kernel plan differs from reference plan"
    if ref.partitioner.stats.emitted != fast.partitioner.stats.emitted:
        yield (
            f"ccp counts differ ({ref.partitioner.stats.emitted} vs "
            f"{fast.partitioner.stats.emitted})"
        )


def _kernel_cases() -> List[Case]:
    shapes = [
        ("chain-18", chain_graph(18), 7),
        ("star-14", star_graph(14), 5),
        ("cycle-16", cycle_graph(16), 7),
        ("clique-14", clique_graph(14), 2),
        ("chain-100", chain_graph(100), 3),
    ]
    cases = []
    for label, graph, repeat in shapes:
        catalog = _catalog(graph)
        cases.append(Case(
            label,
            baseline=functools.partial(_reference, catalog),
            candidate=functools.partial(_kernel, catalog),
            repeat=repeat,
            parity=_kernel_parity,
        ))
    return cases


def _depth_cases() -> List[Case]:
    # Past any plausible default recursion limit: a recursive extraction
    # from an already-deep stack would die here.
    n = 200

    def parity(_, kernel):
        _, plan = kernel
        if plan.n_joins() != n - 1:
            yield f"extracted {plan.n_joins()} joins, expected {n - 1}"
        plan.validate()

    return [Case(
        f"chain-{n}",
        candidate=functools.partial(_kernel, _catalog(chain_graph(n))),
        parity=parity,
    )]


def profile_kernel(top: int = 25) -> None:
    """Print the top cProfile lines of the kernel on clique-14."""
    import cProfile
    import pstats

    catalog = _catalog(clique_graph(14))
    profiler = cProfile.Profile()
    profiler.runcall(_kernel, catalog)
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)


# ----------------------------------------------------------------------
# dpconv: pure-python DPconv is >= 1.5x faster than the kernel on
# clique-14, with bit-identical costs and equal ccp counts
# ----------------------------------------------------------------------


def _dpconv_parity(kernel, dpconv):
    (kernel, kernel_plan), (conv, conv_plan) = kernel, dpconv
    if kernel.last_kernel != "fast" or conv.last_kernel != "dpconv":
        yield f"engine selection reported {kernel.last_kernel}/{conv.last_kernel}"
    if conv_plan.cost != kernel_plan.cost:
        yield f"dpconv cost {conv_plan.cost!r} differs from kernel cost {kernel_plan.cost!r}"
    if conv.builder.cost_evaluations != kernel.builder.cost_evaluations:
        yield (
            f"ccp counts differ ({conv.builder.cost_evaluations} vs "
            f"{kernel.builder.cost_evaluations})"
        )
    conv_plan.validate()


def _dpconv_cases() -> List[Case]:
    # Dense shapes only: on sparse graphs the kernel's ccp-proportional
    # work wins by design.  The pure convolution is pinned because this
    # gate prices the dpconv tier; the native gate prices the C rung.
    shapes = [
        ("clique-10", clique_graph(10), 3, False),
        ("grid-3x4", grid_graph(3, 4), 3, False),
        ("clique-14", clique_graph(14), 2, True),
    ]
    cases = []
    for label, graph, repeat, gated in shapes:
        catalog = _catalog(graph)
        cases.append(Case(
            label,
            baseline=functools.partial(_kernel, catalog),
            candidate=functools.partial(_dpconv, catalog, "off"),
            repeat=repeat,
            parity=_dpconv_parity,
            gated=gated,
            # A machine too slow to finish one kernel run in time cannot
            # produce a meaningful ratio.
            deadline=120.0 if gated else None,
        ))
    return cases


# ----------------------------------------------------------------------
# native: the C dpconv rung is >= 5x faster than pure python, with the
# same plan tree, cost, cost_evaluations and memo size (the C top-down
# rows below share the gate name, so ``make bench-native`` runs all three)
# ----------------------------------------------------------------------


def _native_skip():
    from repro.optimizer._native_build import load_c_kernel
    from repro.optimizer.native import native_backend_status

    if load_c_kernel(build=True) is not None:
        return None
    status = native_backend_status()
    return (
        "no C kernel can be loaded or built on this host "
        f"(cffi={status['cffi']['available']}, "
        f"compiler={status['compiler']['available']})"
    )


def _native_cases() -> List[Case]:
    def parity(catalog, pure_run, c_run):
        (pure, pure_plan), (conv, plan) = pure_run, c_run
        # Anchor the ladder to the paper-faithful enumerator, not to itself.
        reference, ref_plan = _kernel(catalog).result
        if pure.last_backend != "python":
            yield f"native_backend='off' ran backend {pure.last_backend!r}"
        if pure_plan.cost != ref_plan.cost:
            yield f"pure dpconv cost {pure_plan.cost!r} differs from kernel cost {ref_plan.cost!r}"
        if pure.builder.cost_evaluations != reference.builder.cost_evaluations:
            yield (
                f"ccp counts differ from the kernel ({pure.builder.cost_evaluations} "
                f"vs {reference.builder.cost_evaluations})"
            )
        if conv.last_backend != "c":
            yield f"requested backend 'c' but {conv.last_backend!r} ran"
        if plan.cost != pure_plan.cost:
            yield f"C cost {plan.cost!r} differs from pure cost {pure_plan.cost!r}"
        if serialize.plan_to_dict(plan) != serialize.plan_to_dict(pure_plan):
            yield "C plan tree differs from the pure one"
        if conv.builder.cost_evaluations != pure.builder.cost_evaluations:
            yield (
                f"C cost_evaluations {conv.builder.cost_evaluations} != "
                f"{pure.builder.cost_evaluations}"
            )
        if len(conv.builder.memo) != len(pure.builder.memo):
            yield f"C memo size {len(conv.builder.memo)} != {len(pure.builder.memo)}"
        plan.validate()

    shapes = [
        ("clique-10", clique_graph(10), 5),
        ("grid-3x4", grid_graph(3, 4), 5),
        ("clique-14", clique_graph(14), 3),
    ]
    cases = []
    for label, graph, repeat in shapes:
        catalog = _catalog(graph)
        cases.append(Case(
            label,
            baseline=functools.partial(_dpconv, catalog, "off"),
            candidate=functools.partial(_dpconv, catalog, "c"),
            repeat=repeat,
            parity=functools.partial(parity, catalog),
        ))
    return cases


# ----------------------------------------------------------------------
# native_topdown: the C top-down kernel is >= 10x faster than the python
# kernel, with the same plan tree, cost, counters and memo size, under
# C_out and (native_topdown_physical) under the physical cost model
# ----------------------------------------------------------------------


def _native_topdown_cases(cost_model=CoutCostModel, shapes=None) -> List[Case]:
    def parity(python_run, c_run):
        (python, python_plan), (native, plan) = python_run, c_run
        if python.last_backend != "python" or native.last_backend != "c":
            yield (
                f"expected python vs c, ran {python.last_backend!r} vs "
                f"{native.last_backend!r}"
            )
        if plan != python_plan:
            yield "C plan tree differs from the python kernel's"
        if plan.cost != python_plan.cost:
            yield f"C cost {plan.cost!r} differs from python cost {python_plan.cost!r}"
        if native.builder.cost_evaluations != python.builder.cost_evaluations:
            yield (
                f"C cost_evaluations {native.builder.cost_evaluations} != "
                f"{python.builder.cost_evaluations}"
            )
        if native.partitioner.stats != python.partitioner.stats:
            yield (
                f"C partition stats {native.partitioner.stats} != "
                f"{python.partitioner.stats}"
            )
        if len(native.builder.memo) != len(python.builder.memo):
            yield f"C memo size {len(native.builder.memo)} != {len(python.builder.memo)}"
        names = [entry.implementation for entry in native.builder.memo.entries()]
        if names != [entry.implementation for entry in python.builder.memo.entries()]:
            yield "C memo implementation names differ from the python kernel's"
        plan.validate()

    if shapes is None:
        # The kernel gate's shapes but chain-100, which is past the C
        # kernel's 64-relation mask.
        shapes = [
            ("chain-18", chain_graph(18), 7),
            ("star-14", star_graph(14), 5),
            ("cycle-16", cycle_graph(16), 7),
            ("clique-14", clique_graph(14), 2),
        ]
    cases = []
    for label, graph, repeat in shapes:
        catalog = _catalog(graph)
        cases.append(Case(
            label,
            baseline=functools.partial(_kernel, catalog, "off", cost_model),
            candidate=functools.partial(_kernel, catalog, "c", cost_model),
            repeat=repeat,
            parity=parity,
        ))
    return cases


def _native_topdown_physical_cases() -> List[Case]:
    # Two cost evaluations per ccp make the python kernel ~2.5x slower
    # than under C_out, so the clique is two relations smaller.
    return _native_topdown_cases(PhysicalCostModel, [
        ("chain-18", chain_graph(18), 7),
        ("star-14", star_graph(14), 5),
        ("cycle-16", cycle_graph(16), 7),
        ("clique-12", clique_graph(12), 2),
    ])


# ----------------------------------------------------------------------
# anytime: a 50ms-deadline clique-16 salvages a valid plan no costlier
# than GOO within 50 + 20 ms, and the budget checks cost <= 1%
# ----------------------------------------------------------------------

_ANYTIME_DEADLINE = 0.050


def _salvage_cases() -> List[Case]:
    catalog = _catalog(clique_graph(16))
    request = OptimizationRequest(
        query=catalog, algorithm="tdmincutbranch", deadline_seconds=_ANYTIME_DEADLINE
    )

    def run():
        result = optimize_request(request)
        assert result.details.get("anytime") == 1, (
            "clique-16 finished inside 50ms; the anytime path was not exercised"
        )
        return result

    def parity(_, result):
        violations = validate_plan(result.plan, catalog, cost_model=CoutCostModel())
        if violations:
            yield f"salvaged plan invalid: {violations[:3]}"
        salvage = result.details.get("salvage", {})
        if salvage.get("salvaged_cost", math.inf) > salvage.get("goo_cost", 0.0):
            yield (
                f"anytime floor violated: salvaged {salvage.get('salvaged_cost')} "
                f"> goo {salvage.get('goo_cost')}"
            )

    return [Case("clique-16", candidate=run, repeat=6, parity=parity)]


def _overhead_cases() -> List[Case]:
    # The kernel's everyday diet, where the checks ride the hottest loops
    # but never fire.  ``inner`` makes each timed leg tens of milliseconds.
    shapes = [
        ("chain-16", chain_graph(16), 40, 9),
        ("cycle-14", cycle_graph(14), 25, 9),
        ("star-14", star_graph(14), 1, 9),
        ("grid-3x4", grid_graph(3, 4), 3, 9),
        ("clique-12", clique_graph(12), 1, 5),
    ]
    return _budget_overhead_cases(shapes, "off")


def _native_overhead_cases() -> List[Case]:
    # The same shapes on the C kernel, each run ~100x shorter, so
    # ``inner`` is larger; the checks are the chunked node charges between
    # C calls and the deadline callback from inside them.  Legs this
    # short jitter by a few percent on a shared host, so each shape takes
    # 21 pairs to resolve a 1% effect.
    shapes = [
        ("chain-16", chain_graph(16), 250, 21),
        ("cycle-14", cycle_graph(14), 250, 21),
        ("star-14", star_graph(14), 12, 21),
        ("grid-3x4", grid_graph(3, 4), 50, 21),
        ("clique-12", clique_graph(12), 8, 21),
    ]
    return _budget_overhead_cases(shapes, "c")


def _budget_overhead_cases(shapes, backend) -> List[Case]:
    def run(catalog, budgeted):
        optimizer = TopDownPlanGenerator(
            catalog, MinCutBranch, CoutCostModel(), native_backend=backend
        )
        if budgeted:
            # Far-future deadline: every check runs, none ever fires.
            optimizer.budget = Budget(deadline_seconds=1e9)
        return optimizer, optimizer.optimize()

    def parity(plain, budgeted):
        (plain_run, plain_plan), (budgeted_run, budgeted_plan) = plain, budgeted
        expected = "c" if backend == "c" else "python"
        if {plain_run.last_backend, budgeted_run.last_backend} != {expected}:
            yield (
                f"expected the {expected} kernel, ran {plain_run.last_backend!r} "
                f"and {budgeted_run.last_backend!r}"
            )
        if plain_plan.cost != budgeted_plan.cost:
            yield (
                f"far-future budget changed the answer ({budgeted_plan.cost!r} "
                f"vs {plain_plan.cost!r})"
            )

    cases = []
    for label, graph, inner, pairs in shapes:
        catalog = _catalog(graph)
        cases.append(Case(
            label,
            baseline=functools.partial(run, catalog, False),
            candidate=functools.partial(run, catalog, True),
            repeat=pairs,
            inner=inner,
            parity=parity,
        ))
    return cases


# ----------------------------------------------------------------------
# frontdoor: warm p99 <= 250ms with zero errors through the real HTTP
# door, and 4 shards serve >= 2x the warm throughput of 1
# ----------------------------------------------------------------------

_DOOR_REQUESTS, _DOOR_CLIENTS = 120, 8


def _door_documents(n=8, shapes=4, variants=3):
    """``shapes`` chain queries, each with isomorphic relabelings that
    share a cache entry and a shard but miss the door's route memo."""
    documents = []
    for seed in range(shapes):
        catalog = WorkloadGenerator(seed=SEED + seed).fixed_shape("chain", n).catalog
        family = [catalog]
        for variant in range(1, variants):
            rotation = list(range(variant, n)) + list(range(variant))
            relations = [None] * n
            for vertex in range(n):
                relations[rotation[vertex]] = catalog.relations[vertex]
            selectivities = {
                (rotation[u], rotation[v]): catalog.selectivity(u, v)
                for (u, v) in catalog.graph.edges
            }
            family.append(Catalog(catalog.graph.relabelled(rotation), relations, selectivities))
        documents.extend(
            json.dumps({"version": 1, "request": serialize.request_to_dict(
                OptimizationRequest(query=member, algorithm="tdmincutbranch")
            )}).encode()
            for member in family
        )
    return documents


async def _post(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            (
                f"POST /v1/optimize HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            ).encode() + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return int(raw.partition(b"\r\n\r\n")[0].split(b" ")[1])


async def _replay(port, bodies):
    """All bodies through concurrent clients: (wall, latencies, errors)."""
    queue = asyncio.Queue()
    for body in bodies:
        queue.put_nowait(body)
    latencies, errors = [], []

    async def client():
        while not queue.empty():
            body = queue.get_nowait()
            started = time.perf_counter()
            status = await _post(port, body)
            latencies.append(time.perf_counter() - started)
            if status != 200:
                errors.append(status)

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(_DOOR_CLIENTS)))
    return time.perf_counter() - started, latencies, errors


@functools.lru_cache(maxsize=None)
def _door(shards):
    """One measurement against a fresh door: a cold pass over every
    document, then a warm replay in which every request should hit."""

    async def measure():
        door = FrontDoor(FrontDoorConfig(
            shards=shards, queue_limit=max(64, _DOOR_REQUESTS), deadline_seconds=30.0
        ))
        await door.start()
        try:
            bodies = _door_documents()
            _, _, cold_errors = await _replay(door.port, bodies)
            replay = [bodies[i % len(bodies)] for i in range(_DOOR_REQUESTS)]
            wall, latencies, warm_errors = await _replay(door.port, replay)
        finally:
            await door.close()
        ordered = sorted(latencies)
        p99 = ordered[max(0, min(len(ordered) - 1, round(0.99 * len(ordered)) - 1))]
        return {"wall": wall, "p99": p99, "errors": len(cold_errors) + len(warm_errors)}

    return asyncio.run(measure())


def _door_leg(shards, metric):
    return Sample(_door(shards)[metric], _door(shards))


def _door_errors(_, result):
    if result["errors"]:
        yield f"{result['errors']} non-200 responses"


def _p99_cases() -> List[Case]:
    return [Case("1 shard", candidate=functools.partial(_door_leg, 1, "p99"), parity=_door_errors)]


def _scaling_cases() -> List[Case]:
    return [Case(
        "4 vs 1 shards",
        baseline=functools.partial(_door_leg, 1, "wall"),
        candidate=functools.partial(_door_leg, 4, "wall"),
        parity=_door_errors,
    )]


GATES = [
    Gate("service", "warm plan-cache hit vs cold miss, n=14", _service_cases,
         floor=10.0, warmup=False),
    Gate("batch", "process vs serial batch executor", _batch_cases,
         floor=1.5, median=True, min_cores=2),
    Gate("resilience", "heuristic ladder vs exact, physical cost model",
         _ladder_cases, ceiling=0.10, strict=True, warmup=False),
    Gate("observability", "tracing on vs off, warm cache", _observability_cases,
         ceiling=1.05, strict=True),
    Gate("kernel", "iterative kernel vs the paper's recursion", _kernel_cases,
         floor=1.3, geomean=True),
    Gate("kernel", "deep chain optimizes and extracts without recursion",
         _depth_cases, warmup=False),
    Gate("dpconv", "pure dpconv vs the kernel on dense graphs", _dpconv_cases,
         floor=1.5),
    Gate("native", "C dpconv rung vs pure python", _native_cases,
         floor=5.0, geomean=True, skip=_native_skip),
    Gate("native", "native_topdown: C top-down kernel vs the python kernel",
         _native_topdown_cases, floor=10.0, geomean=True, skip=_native_skip),
    Gate("native",
         "native_topdown_physical: C vs python kernel, physical model",
         _native_topdown_physical_cases, floor=10.0, geomean=True,
         skip=_native_skip),
    Gate("native", "far-future budget vs none on the C top-down kernel",
         _native_overhead_cases, ceiling=1.01, median=True, geomean=True,
         noise_ceiling=0.005, skip=_native_skip),
    # The 50ms deadline plus a 20ms salvage allowance.
    Gate("anytime", "50ms-deadline clique-16 salvage (seconds)", _salvage_cases,
         ceiling=0.070, slack=4.0, warmup=False),
    Gate("anytime", "far-future budget vs none on the kernel", _overhead_cases,
         ceiling=1.01, median=True, geomean=True, noise_ceiling=0.005),
    Gate("frontdoor", "warm p99 through the HTTP door (seconds)", _p99_cases,
         ceiling=0.250, warmup=False),
    Gate("frontdoor", "warm throughput, 4 shards vs 1", _scaling_cases,
         floor=2.0, warmup=False, min_cores=4),
]


if __name__ == "__main__":
    sys.exit(run_gates(GATES, sys.argv[1:]))
