"""Command-line interface: optimize ad-hoc queries from the shell.

Examples::

    repro-optimize --shape chain --n 8
    repro-optimize --shape clique --n 7 --algorithm dpccp --seed 3
    repro-optimize --edges "0-1,1-2,2-0" --cards "100,2000,50" \
        --sels "0-1:0.1,1-2:0.05,2-0:0.5" --cost-model physical
    repro-optimize --shape star --n 9 --compare

Subcommands (``repro-optimize <subcommand> ...`` or
``python -m repro.cli <subcommand> ...``)::

    serve-stats    drive an OptimizerService over a workload and report
                   cache hit/miss/eviction counts, degradation/retry
                   counters, breaker states, and per-algorithm latency
                   percentiles (optionally as JSON); resilience knobs:
                   --max-ccp-budget, --breaker-threshold,
                   --breaker-cooldown, --retries
    serve          run the sharded async HTTP front door (v1 wire API,
                   see docs/SERVING.md): --shards worker processes with
                   private plan caches, consistent-hash routing,
                   per-tenant --quota admission, bounded queues with
                   429 backpressure, /metrics Prometheus export
    backends       report whether the compiled C dpconv kernel is
                   available on this host and which backend (pure
                   python or C) the auto-selector would pick;
                   --build compiles the C kernel eagerly, --json emits
                   the raw status document
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.catalog.statistics import Catalog, Relation
from repro.catalog.workload import WorkloadGenerator, attach_random_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.errors import ReproError
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import ALGORITHMS, optimize_query

__all__ = ["main"]


def _parse_edges(spec: str) -> List[tuple]:
    """Parse ``"0-1,1-2"`` into [(0, 1), (1, 2)]."""
    edges = []
    for chunk in spec.split(","):
        left, _, right = chunk.partition("-")
        edges.append((int(left), int(right)))
    return edges


def _build_catalog(args) -> Catalog:
    if args.workload:
        family, _, query = args.workload.partition(":")
        builders = {}
        from repro.workloads.joblite import job_query
        from repro.workloads.ssb import ssb_query
        from repro.workloads.tpch import tpch_query

        builders = {"tpch": tpch_query, "ssb": ssb_query, "job": job_query}
        if family not in builders:
            raise ReproError(
                f"unknown workload family {family!r}; expected one of "
                f"{sorted(builders)} (e.g. tpch:q5)"
            )
        if not query:
            raise ReproError(
                f"workload spec needs a query name, e.g. {family}:q5"
            )
        return builders[family](query, scale_factor=args.scale_factor)
    if args.edges:
        edges = _parse_edges(args.edges)
        n = max(max(e) for e in edges) + 1
        graph = QueryGraph(n, edges)
        if args.cards:
            cards = [float(c) for c in args.cards.split(",")]
            relations = [
                Relation(f"R{i}", card) for i, card in enumerate(cards)
            ]
        else:
            return attach_random_statistics(graph, seed=args.seed)
        selectivities = {}
        if args.sels:
            for chunk in args.sels.split(","):
                edge_spec, _, value = chunk.partition(":")
                u, _, v = edge_spec.partition("-")
                selectivities[(int(u), int(v))] = float(value)
        else:
            selectivities = {e: 0.1 for e in graph.edges}
        return Catalog(graph, relations, selectivities)
    generator = WorkloadGenerator(seed=args.seed)
    if args.shape == "cyclic":
        return generator.random_cyclic_uniform_edges(args.n).catalog
    if args.shape == "acyclic":
        return generator.random_acyclic(args.n).catalog
    return generator.fixed_shape(args.shape, args.n).catalog


def _serve_stats_main(argv: List[str]) -> int:
    """``serve-stats``: run a workload through an OptimizerService.

    Generates ``--count`` distinct queries of the requested shape, runs
    ``--repeat`` batch passes over them (passes beyond the first are
    warm), then prints the service's ``stats_snapshot()``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-optimize serve-stats",
        description="Serve a workload from a long-lived OptimizerService "
        "and report plan-cache and latency statistics.",
    )
    parser.add_argument(
        "--shape",
        choices=["chain", "star", "cycle", "clique", "acyclic", "cyclic"],
        default="chain",
        help="generated query graph shape",
    )
    parser.add_argument("--n", type=int, default=8, help="relations per query")
    parser.add_argument(
        "--count", type=int, default=8, help="distinct queries to generate"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="batch passes over the query set (passes > 1 hit the cache)",
    )
    parser.add_argument("--workers", type=int, default=4, help="batch workers")
    parser.add_argument(
        "--executor",
        choices=["serial", "process"],
        help="batch backend: process = worker processes (true multi-core, "
        "deadlines), serial = calling thread; default: serial for "
        "--workers 1, else process",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="per-item wall-clock budget; items past it resolve to an "
        "error (or heuristic fallback) instead of stalling the batch",
    )
    parser.add_argument(
        "--fallback",
        action="store_true",
        help="serve a greedy (GOO) heuristic plan for items that "
        "exceed --deadline instead of an error result",
    )
    parser.add_argument(
        "--algorithm",
        default="auto",
        help='registry algorithm name or "auto" (default)',
    )
    parser.add_argument(
        "--capacity", type=int, default=512, help="plan cache capacity"
    )
    parser.add_argument(
        "--pruning", action="store_true", help="enable branch-and-bound pruning"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-ccp-budget",
        type=int,
        metavar="CCPS",
        help="admission budget: requests whose estimated csg-cmp-pair "
        "count exceeds this are served from the degradation ladder "
        "(IKKBZ for acyclic graphs, GOO otherwise) instead of the "
        "exact enumerator",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="K",
        help="consecutive failures/timeouts per algorithm label before "
        "its circuit breaker opens (default 5)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds an open breaker waits before admitting a "
        "half-open probe (default 30)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="max retries per item for transient process-worker "
        "failures (crashes/corrupt payloads; default 0 = off)",
    )
    parser.add_argument(
        "--load-cache", metavar="PATH", help="warm the cache from a JSON file"
    )
    parser.add_argument(
        "--save-cache", metavar="PATH", help="persist the cache to a JSON file"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw snapshot as JSON (alias for --format json)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "prometheus"],
        default="text",
        help="output format: human-readable text (default), raw snapshot "
        "JSON, or Prometheus text exposition format",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of the most recent request as JSON "
        "(after the stats output)",
    )
    parser.add_argument(
        "--slow-log-ms",
        type=float,
        metavar="MS",
        help="log a WARNING with a per-stage breakdown for any request "
        "slower than this threshold",
    )
    args = parser.parse_args(argv)

    from repro.optimizer.api import OptimizationRequest
    from repro.service.core import OptimizerService
    from repro.service.metrics import render_prometheus
    from repro.service.resilience import ResilienceConfig

    try:
        generator = WorkloadGenerator(seed=args.seed)
        instances = list(
            generator.series(args.shape, [args.n], per_size=args.count)
        )
        resilience = ResilienceConfig(
            max_ccp_budget=args.max_ccp_budget,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_seconds=args.breaker_cooldown,
            max_retries=args.retries,
        )
        service = OptimizerService(
            cache_capacity=args.capacity,
            resilience=resilience,
            slow_log_ms=args.slow_log_ms,
        )
        if args.load_cache:
            loaded = service.load_cache(args.load_cache)
            print(f"warmed cache with {loaded} entries from {args.load_cache}")
        requests = [
            OptimizationRequest(
                query=instance,
                algorithm=args.algorithm,
                enable_pruning=args.pruning,
                tag=f"q{i}",
            )
            for i, instance in enumerate(instances)
        ]
        for _ in range(max(1, args.repeat)):
            results = service.optimize_batch(
                requests,
                workers=args.workers,
                executor=args.executor,
                deadline_seconds=args.deadline,
                fallback="goo" if args.fallback else None,
            )
        failed = [r for r in results if not r.ok]
        snapshot = service.stats_snapshot()
        if args.save_cache:
            saved = service.save_cache(args.save_cache)
            print(f"saved {saved} cache entries to {args.save_cache}")
        output_format = "json" if args.json else args.format

        def _print_trace() -> None:
            if not args.trace:
                return
            last = service.traces.last()
            if last is None:
                print("no trace recorded", file=sys.stderr)
            else:
                print(json.dumps(last.to_dict(), indent=2, sort_keys=True))

        if output_format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            _print_trace()
            return 0
        if output_format == "prometheus":
            sys.stdout.write(render_prometheus(snapshot))
            _print_trace()
            return 0
        totals, cache = snapshot["totals"], snapshot["cache"]
        print(
            f"requests={totals['requests']} errors={totals['errors']} "
            f"cache_hits={totals['cache_hits']} "
            f"cache_misses={totals['cache_misses']} "
            f"timeouts={totals.get('timeouts', 0)} "
            f"fallbacks={totals.get('fallbacks', 0)} "
            f"degraded={totals.get('degraded', 0)} "
            f"fast_exact={totals.get('fast_exact', 0)} "
            f"retries={totals.get('retries', 0)} "
            f"kernel_fast={totals.get('kernel_fast', 0)} "
            f"kernel_dpconv={totals.get('kernel_dpconv', 0)} "
            f"kernel_native_c={totals.get('kernel_native_c', 0)}"
        )
        backends = snapshot.get("backends")
        if backends:
            print(
                f"backends: resolved={backends.get('resolved')} "
                f"c_kernel={backends.get('c_kernel', {}).get('built')}"
            )
        breakers = snapshot.get("breaker", {})
        open_breakers = {
            name: slot
            for name, slot in breakers.items()
            if slot.get("state") != "closed"
        }
        if open_breakers:
            for name, slot in sorted(open_breakers.items()):
                print(
                    f"breaker: {name} state={slot['state']} "
                    f"consecutive_failures={slot['consecutive_failures']}"
                )
        print(
            f"cache: size={cache['size']}/{cache['capacity']} "
            f"hits={cache['hits']} misses={cache['misses']} "
            f"evictions={cache['evictions']}"
        )
        for name, stats in snapshot["algorithms"].items():
            latency = stats["latency"]
            print(
                f"  {name:18s} count={stats['count']:<5d} "
                f"hits={stats['cache_hits']:<5d} errors={stats['errors']:<3d} "
                f"p50={latency.get('p50_ms', 0):.2f}ms "
                f"p95={latency.get('p95_ms', 0):.2f}ms "
                f"p99={latency.get('p99_ms', 0):.2f}ms"
            )
        if failed:
            print(f"failed queries: {[r.tag for r in failed]}", file=sys.stderr)
        _print_trace()
        return 0
    except (ReproError, OSError) as exc:
        # OSError covers --load-cache/--save-cache path problems (missing
        # file, unwritable directory); corruption inside an existing cache
        # file is NOT an error — it loads as empty/partial with a warning.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _backends_main(argv: List[str]) -> int:
    """``backends``: report native enumeration backend availability.

    Shows what :mod:`repro.optimizer.native` can use on this host —
    cffi, a C compiler, a cached compiled kernel — and which backend
    the auto-selector resolves to for the symmetric-cost exact tier.
    ``--build`` compiles the C kernel now (so first-request latency
    never pays for it); ``--json`` dumps the same document the service
    embeds under ``backends`` in ``/v1/stats``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-optimize backends",
        description="Report whether the compiled C dpconv kernel is "
        "available and which backend (python or c) the auto-selector "
        "resolves to on this host.",
    )
    parser.add_argument(
        "--build",
        action="store_true",
        help="compile the C kernel now if a toolchain is available; "
        "auto selection only loads an already-built kernel, so deploy "
        "with this flag to serve dpconv from C",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw status document as JSON",
    )
    args = parser.parse_args(argv)

    from repro.optimizer import native
    from repro.optimizer._native_build import load_c_kernel

    if args.build:
        kernel = load_c_kernel(build=True)
        if kernel is None and not args.json:
            print(
                "C kernel build failed or no toolchain available "
                "(falling back is automatic)",
                file=sys.stderr,
            )
    status = native.native_backend_status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    cffi_info = status["cffi"]
    compiler = status["compiler"]
    c_kernel = status["c_kernel"]
    print(f"resolved:  {status['resolved']}")
    print(
        "cffi:      "
        + (
            f"available ({cffi_info['version']})"
            if cffi_info["available"]
            else "missing"
        )
    )
    print(
        "compiler:  "
        + (f"{compiler['cc']}" if compiler["available"] else "missing")
    )
    if c_kernel["built"]:
        print(f"c kernel:  built ({c_kernel['path']}, tag {c_kernel['tag']})")
    else:
        print("c kernel:  not built")
    limits = status["max_n"]
    print(
        f"limits:    c dpconv n<={limits['dpconv']}, "
        f"c top-down n<={limits['topdown']} "
        "(larger queries use pure python)"
    )
    return 0


def _serve_main(argv: List[str]) -> int:
    """``serve``: run the sharded HTTP front door until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-optimize serve",
        description="Serve the v1 optimize wire API over HTTP: consistent-"
        "hash routing onto shard processes (each with a private plan "
        "cache), per-tenant admission quotas, and bounded per-shard "
        "queues that reject overload with 429.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8972,
        help="bind port (0 = pick an ephemeral port; the chosen port is "
        "printed on the 'listening on' line)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker shard processes, each owning a private "
        "OptimizerService (default 2)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="requests a shard may have queued before new ones are "
        "rejected with 429 over_capacity (default 16)",
    )
    parser.add_argument(
        "--quota",
        type=float,
        metavar="RPS",
        help="per-tenant admission quota in requests/second (token "
        "bucket; omit for no quota)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=10.0,
        metavar="N",
        help="token-bucket burst per tenant (default 10)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=512,
        help="plan cache capacity per shard (default 512)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request wall budget including shard queue time; a "
        "shard that blows it is recycled (default 30)",
    )
    parser.add_argument(
        "--max-ccp-budget",
        type=int,
        metavar="CCPS",
        help="per-shard admission budget: over-budget requests are "
        "served from the degradation ladder instead of the exact "
        "enumerator",
    )
    parser.add_argument(
        "--warm-cache",
        metavar="PATH",
        help="plan cache snapshot to warm shards from at spin-up (each "
        "shard loads only the entries the hash ring assigns to it)",
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        help="per-shard plan-cache snapshot base path (shard i writes "
        "PATH.shard<i>): persisted on graceful shutdown and, with "
        "--snapshot-interval, periodically; respawned shards re-warm "
        "from their latest snapshot",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=float,
        metavar="SECONDS",
        help="seconds between periodic cache snapshots (requires "
        "--snapshot; omit to snapshot only on graceful shutdown)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to this long for in-flight "
        "requests before shutting shards down (default 5)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual nodes per shard on the consistent-hash ring "
        "(default 64)",
    )
    args = parser.parse_args(argv)

    import asyncio

    from repro.service.frontdoor import FrontDoor, FrontDoorConfig
    from repro.service.resilience import ResilienceConfig

    service_kwargs = {"cache_capacity": args.capacity}
    if args.max_ccp_budget is not None:
        service_kwargs["resilience"] = ResilienceConfig(
            max_ccp_budget=args.max_ccp_budget
        )
    config = FrontDoorConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        queue_limit=args.queue_limit,
        quota_rate=args.quota,
        quota_burst=args.quota_burst,
        deadline_seconds=args.deadline,
        ring_replicas=args.replicas,
        warm_cache_path=args.warm_cache,
        snapshot_path=args.snapshot,
        snapshot_interval_seconds=args.snapshot_interval,
        drain_grace_seconds=args.drain_grace,
        shard_service_kwargs=service_kwargs,
    )

    async def run() -> None:
        import signal

        door = FrontDoor(config)
        await door.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support
        print(f"listening on {config.host}:{door.port}", flush=True)
        serving = asyncio.ensure_future(door.serve_forever())
        stopping = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serving.cancel()
            stopping.cancel()
            if stop.is_set():
                # Graceful drain: stop accepting, let in-flight requests
                # finish within the grace, persist shard caches, exit.
                print("draining...", flush=True)
                await door.drain()
            else:
                await door.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except ReproError as exc:  # a bad setting, e.g. --quota nan
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


#: Subcommand name -> entry point; checked before flat-flag parsing.
SUBCOMMANDS = {
    "serve-stats": _serve_stats_main,
    "serve": _serve_main,
    "backends": _backends_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description="Join-order optimization with top-down enumeration "
        "(Fender & Moerkotte, ICDE 2011).",
    )
    source = parser.add_argument_group("query source")
    source.add_argument(
        "--shape",
        choices=["chain", "star", "cycle", "clique", "acyclic", "cyclic"],
        default="chain",
        help="generated query graph shape",
    )
    source.add_argument("--n", type=int, default=6, help="number of relations")
    source.add_argument(
        "--edges",
        help='explicit edge list, e.g. "0-1,1-2,2-0" (overrides --shape)',
    )
    source.add_argument(
        "--cards", help='explicit cardinalities, e.g. "100,2000,50"'
    )
    source.add_argument(
        "--sels", help='explicit selectivities, e.g. "0-1:0.1,1-2:0.05"'
    )
    source.add_argument("--seed", type=int, default=0, help="statistics seed")
    source.add_argument(
        "--workload",
        help='benchmark query, e.g. "tpch:q5", "ssb:q4.1", "job:j12" '
        "(overrides --shape/--edges)",
    )
    source.add_argument(
        "--scale-factor",
        type=float,
        default=1.0,
        help="scale factor for --workload schemas",
    )

    run = parser.add_argument_group("optimization")
    run.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="tdmincutbranch",
    )
    run.add_argument(
        "--cost-model", choices=["cout", "physical"], default="cout"
    )
    run.add_argument(
        "--pruning", action="store_true", help="enable branch-and-bound pruning"
    )
    run.add_argument(
        "--compare",
        action="store_true",
        help="run every algorithm and report each runtime",
    )
    run.add_argument(
        "--explain",
        action="store_true",
        help="print a full EXPLAIN report (search space, counters, plan)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a versioned optimization_result JSON "
        "document (the same schema the serve API returns) instead of "
        "the text summary",
    )
    args = parser.parse_args(argv)

    try:
        catalog = _build_catalog(args)
        cost_model = (
            PhysicalCostModel() if args.cost_model == "physical" else CoutCostModel()
        )
        if args.explain:
            from repro.analysis.explain import explain

            print(
                explain(
                    catalog,
                    algorithm=args.algorithm,
                    cost_model=cost_model,
                    enable_pruning=args.pruning,
                )
            )
            return 0
        if args.compare:
            print(
                f"query: {catalog.graph.n_vertices} relations, "
                f"{catalog.graph.n_edges} join edges "
                f"({catalog.graph.shape_name()})"
            )
            for name in sorted(ALGORITHMS):
                try:
                    result = optimize_query(
                        catalog, algorithm=name, cost_model=cost_model
                    )
                except ReproError as exc:
                    print(f"  {name:18s} failed: {exc}")
                    continue
                print(f"  {result.summary()}")
            return 0
        result = optimize_query(
            catalog,
            algorithm=args.algorithm,
            cost_model=cost_model,
            enable_pruning=args.pruning,
        )
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
            return 0
        print(result.summary())
        print()
        print(result.plan.pretty())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
