"""Seeded, deterministic multi-tenant workload replay harness.

The serving stack has eight layers of machinery — plan cache,
degradation ladder, circuit breakers, shards, admission control — but
the ``BENCH_*.json`` gates only probe them one at a time.  This module
drives them *together*: it synthesizes a multi-tenant query stream
(chain/star/cycle/clique shapes plus TPC-H/SSB/JOB-lite queries from
:mod:`repro.workloads`, Zipf-skewed tenant popularity, exponential
interarrivals) against either an in-process
:class:`~repro.service.core.OptimizerService` or a live front door, and
records a per-request event log that the figure registry
(:mod:`repro.bench.figures`) turns into a fleet dashboard.

Determinism is a contract, not an accident: with ``timing="virtual"``
(the default) every event field — including the latency proxy — derives
from seeded RNG state and deterministic optimizer counters, so the same
seed and config produce a byte-identical event log and ``REPLAY.json``.
``timing="wall"`` swaps the proxy for measured milliseconds when you
want real numbers and can tolerate run-to-run noise.

Mid-stream the harness drifts catalog statistics: each affected query's
``stats_epoch`` is bumped and its catalog rebuilt with perturbed
numbers.  Because :func:`repro.service.core.request_signature` mixes a
nonzero epoch into the cache key, the drift *must* produce cache misses
— the harness counts ``drift_invalidations`` (epoch bump changed the
signature, orphaning the cached plan) and ``stale_plan_serves`` (a
cache hit whose entry was stored under an older epoch, which the
stats-epoch fix makes structurally impossible) and the replay gate
asserts the latter stays zero.  ``sub_quantum_drift=True`` reproduces
the original bug's conditions: statistics move by less than a rounding
quantum, so *only* the epoch separates old from new.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.catalog.statistics import Catalog, Relation
from repro.catalog.workload import attach_random_statistics
from repro.graph.shapes import make_shape
from repro.optimizer.api import OptimizationRequest

__all__ = [
    "ReplayConfig",
    "ReplayQuery",
    "build_stream",
    "perturb_catalog",
    "run_replay",
    "summarize",
    "write_outputs",
    "percentile",
    "main",
]

#: Phases of the stream, in order: cold-cache ``warmup``, the steady
#: Zipf-``skewed`` window the hit-rate gate measures, and ``post_drift``
#: after the mid-stream statistics refresh.
PHASES = ("warmup", "skewed", "post_drift")


@dataclass
class ReplayConfig:
    """Everything that shapes a replay stream; hashable into the report."""

    seed: int = 20110411
    tenants: int = 3
    requests: int = 400
    queries_per_tenant: int = 6
    #: Zipf exponent for tenant popularity: tenant ``i`` has weight
    #: ``1 / (i + 1) ** zipf_s``.
    zipf_s: float = 1.2
    #: Mean arrival rate in requests per (virtual) second.
    arrival_rate: float = 200.0
    shapes: Sequence[str] = ("chain", "star", "cycle", "clique")
    min_relations: int = 4
    max_relations: int = 9
    #: Cliques get their own range so the admission estimate pushes a
    #: visible slice of traffic onto the dpconv fast-exact rung (on a
    #: host with the C kernel, ``auto`` picks dpconv for them outright).
    clique_min: int = 8
    clique_max: int = 12
    #: Fraction of each tenant's pool drawn from the named TPC-H / SSB /
    #: JOB-lite catalogs instead of synthetic shapes.
    named_fraction: float = 0.25
    #: Stream positions (fractions) where warmup ends and drift lands.
    warmup_fraction: float = 0.15
    drift_fraction_of_stream: float = 0.6
    #: Fraction of each tenant's pool whose statistics drift.
    drift_query_fraction: float = 0.5
    #: Relative perturbation applied by the drift; with
    #: ``sub_quantum_drift`` the magnitude is ignored and statistics move
    #: by 1 part in 10^9 — far below the 4-significant-digit signature
    #: quantum, so only ``stats_epoch`` separates old from new.
    drift_magnitude: float = 0.05
    sub_quantum_drift: bool = False
    #: "virtual" = deterministic latency proxy; "wall" = measured ms.
    timing: str = "virtual"
    #: Shard count used to attribute events in in-process mode (the same
    #: consistent-hash ring the front door routes with).
    virtual_shards: int = 4
    #: Admission budget for the in-process service, chosen so clique
    #: queries above ``clique_min`` that resolve to an enumerator
    #: degrade to the dpconv rung.
    max_ccp_budget: Optional[int] = 20_000

    def to_dict(self) -> Dict[str, Any]:
        document = asdict(self)
        document["shapes"] = list(self.shapes)
        return document


@dataclass
class ReplayQuery:
    """One pooled query: identity, current catalog, and drift state."""

    tenant: str
    qid: str
    shape: str
    n: int
    catalog: Catalog
    epoch: int = 0
    drifts: bool = False
    last_served_epoch: Optional[int] = None
    last_signature: Optional[str] = None


def _named_query_pool(max_relations: int) -> List[Tuple[str, Catalog]]:
    """All named workload catalogs small enough for the stream, sorted."""
    from repro import workloads

    pool: List[Tuple[str, Catalog]] = []
    sources = [
        ("tpch", workloads.tpch_query_names(), workloads.tpch_query),
        ("ssb", workloads.ssb_query_names(), workloads.ssb_query),
        ("job", workloads.job_query_names(), workloads.job_query),
    ]
    for family, names, build in sources:
        for name in sorted(names):
            catalog = build(name)
            if catalog.graph.n_vertices <= max_relations:
                pool.append((f"{family}:{name}", catalog))
    return pool


def perturb_catalog(
    catalog: Catalog, rng: random.Random, magnitude: float, sub_quantum: bool
) -> Catalog:
    """Return a drifted copy of ``catalog`` (catalogs are immutable).

    ``sub_quantum=True`` nudges every statistic by one part in 10^9 —
    real drift, but invisible to the 4-significant-digit signature
    rounding.  Otherwise each value moves by a seeded relative delta up
    to ``magnitude``.
    """

    def factor() -> float:
        if sub_quantum:
            return 1.0 + 1e-9
        return 1.0 + rng.uniform(-magnitude, magnitude)

    relations = [
        Relation(name=rel.name, cardinality=max(rel.cardinality * factor(), 1e-6))
        for rel in catalog.relations
    ]
    selectivities = {
        edge: min(max(catalog.selectivity(*edge) * factor(), 1e-12), 1.0)
        for edge in catalog.graph.edges
    }
    return Catalog(catalog.graph, relations, selectivities)


def build_stream(
    config: ReplayConfig,
) -> Tuple[List[ReplayQuery], List[Dict[str, Any]]]:
    """Synthesize the query pool and the arrival schedule.

    Returns ``(queries, schedule)`` where ``schedule`` rows carry
    ``{"seq", "t", "query_index"}``.  Everything is derived from
    ``config.seed`` through independent child RNGs, so pool and
    schedule are reproducible independently of each other.
    """
    rng = random.Random(config.seed)
    named = _named_query_pool(config.max_relations)
    queries: List[ReplayQuery] = []
    for t in range(config.tenants):
        tenant = f"t{t}"
        child = random.Random(rng.randrange(2**31))
        for q in range(config.queries_per_tenant):
            qid = f"{tenant}/q{q}"
            if named and child.random() < config.named_fraction:
                label, catalog = named[child.randrange(len(named))]
                queries.append(
                    ReplayQuery(
                        tenant=tenant,
                        qid=qid,
                        shape=label,
                        n=catalog.graph.n_vertices,
                        catalog=catalog,
                    )
                )
                continue
            shape = config.shapes[q % len(config.shapes)]
            if shape == "clique":
                n = child.randint(config.clique_min, config.clique_max)
            else:
                n = child.randint(config.min_relations, config.max_relations)
            graph = make_shape(shape, n)
            catalog = attach_random_statistics(
                graph, seed=child.randrange(2**31)
            )
            queries.append(
                ReplayQuery(
                    tenant=tenant, qid=qid, shape=shape, n=n, catalog=catalog
                )
            )

    # Mark which queries drift (seeded, at least one overall).
    drift_rng = random.Random(rng.randrange(2**31))
    per_tenant = config.queries_per_tenant
    for t in range(config.tenants):
        pool = queries[t * per_tenant : (t + 1) * per_tenant]
        k = max(1, int(round(len(pool) * config.drift_query_fraction)))
        for query in drift_rng.sample(pool, k):
            query.drifts = True

    weights = [1.0 / (t + 1) ** config.zipf_s for t in range(config.tenants)]
    schedule: List[Dict[str, Any]] = []
    clock = 0.0
    arrival_rng = random.Random(rng.randrange(2**31))
    pick_rng = random.Random(rng.randrange(2**31))
    for seq in range(config.requests):
        clock += arrival_rng.expovariate(config.arrival_rate)
        tenant_index = pick_rng.choices(
            range(config.tenants), weights=weights
        )[0]
        query_index = tenant_index * per_tenant + pick_rng.randrange(per_tenant)
        schedule.append(
            {"seq": seq, "t": round(clock, 6), "query_index": query_index}
        )
    return queries, schedule


def _phase_of(seq: int, config: ReplayConfig) -> str:
    if seq < int(config.requests * config.warmup_fraction):
        return "warmup"
    if seq < int(config.requests * config.drift_fraction_of_stream):
        return "skewed"
    return "post_drift"


def _apply_drift(
    queries: List[ReplayQuery], config: ReplayConfig, seed: int
) -> int:
    """Bump epochs and rebuild catalogs for every drifting query."""
    rng = random.Random(seed)
    drifted = 0
    for query in queries:
        if not query.drifts:
            continue
        query.catalog = perturb_catalog(
            query.catalog,
            rng,
            config.drift_magnitude,
            config.sub_quantum_drift,
        )
        query.epoch += 1
        drifted += 1
    return drifted


def _virtual_latency_ms(cache_hit: bool, work_units: float) -> float:
    """Deterministic latency proxy: a fixed floor plus optimizer work."""
    if cache_hit:
        return 0.05
    return round(0.05 + work_units / 1000.0, 6)


def _event_from_result(
    seq: int,
    arrival: float,
    query: ReplayQuery,
    phase: str,
    cache_hit: bool,
    signature: Optional[str],
    details: Dict[str, Any],
    algorithm: str,
    work_units: float,
    wall_ms: float,
    shard: Optional[int],
    breaker_open: bool,
    timing: str,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    if error is not None:
        rung = "error"
    elif cache_hit:
        rung = "cached"
    else:
        rung = details.get("rung") or "exact"
    salvage = (details.get("salvage") or {}).get("memo_solved_fraction")
    return {
        "seq": seq,
        "t": arrival,
        "tenant": query.tenant,
        "qid": query.qid,
        "shape": query.shape,
        "n": query.n,
        "phase": phase,
        "epoch": query.epoch,
        "algorithm": algorithm,
        "rung": rung,
        "cache_hit": bool(cache_hit),
        "latency_ms": (
            _virtual_latency_ms(cache_hit, work_units)
            if timing == "virtual"
            else round(wall_ms, 3)
        ),
        "work_units": work_units,
        "salvage": salvage,
        "breaker_open": breaker_open,
        "shard": shard,
        "signature": signature[:16] if signature else None,
        "error": error,
    }


def _track_staleness(
    event: Dict[str, Any],
    query: ReplayQuery,
    signature: Optional[str],
    cache_hit: bool,
    stored_epoch: Dict[str, int],
) -> None:
    """Annotate ``event`` with stale/invalidated flags and update state.

    * ``invalidated`` — first serve after an epoch bump whose signature
      differs from the previous one: the drift orphaned a cache entry.
    * ``stale`` — a cache hit served from an entry stored under an older
      epoch: the bug the ``stats_epoch`` signature field eliminates.
    """
    invalidated = False
    stale = False
    if signature is not None:
        if (
            query.last_served_epoch is not None
            and query.last_served_epoch != query.epoch
            and query.last_signature is not None
        ):
            invalidated = signature != query.last_signature
        if cache_hit:
            stale = stored_epoch.get(signature, query.epoch) != query.epoch
        else:
            stored_epoch[signature] = query.epoch
        query.last_served_epoch = query.epoch
        query.last_signature = signature
    event["invalidated"] = invalidated
    event["stale"] = stale


def _run_in_process(
    config: ReplayConfig,
    queries: List[ReplayQuery],
    schedule: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    from repro.service.core import OptimizerService
    from repro.service.resilience import BREAKER_CLOSED, ResilienceConfig
    from repro.service.sharding import ConsistentHashRing

    service = OptimizerService(
        default_algorithm="auto",
        tracing=False,
        resilience=ResilienceConfig(
            max_ccp_budget=config.max_ccp_budget,
            # The anytime rung salvages by wall clock, which would leak
            # real time into the event log; the remaining rungs are
            # fully deterministic.
            anytime_enabled=False,
        ),
    )
    ring = ConsistentHashRing(config.virtual_shards)
    drift_seq = int(config.requests * config.drift_fraction_of_stream)
    drift_seed = random.Random(config.seed ^ 0x5EED).randrange(2**31)
    stored_epoch: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    drifted_queries = 0
    for row in schedule:
        seq = row["seq"]
        if seq == drift_seq:
            drifted_queries = _apply_drift(queries, config, drift_seed)
        query = queries[row["query_index"]]
        request = OptimizationRequest(
            query=query.catalog,
            algorithm="auto",
            stats_epoch=query.epoch,
            tag=query.qid,
        )
        started = time.perf_counter()
        error = None
        try:
            result = service.optimize(request)
        except Exception as exc:  # typed service errors become events
            wall_ms = (time.perf_counter() - started) * 1000.0
            event = _event_from_result(
                seq,
                row["t"],
                query,
                _phase_of(seq, config),
                cache_hit=False,
                signature=None,
                details={},
                algorithm="auto",
                work_units=0.0,
                wall_ms=wall_ms,
                shard=None,
                breaker_open=False,
                timing=config.timing,
                error=type(exc).__name__,
            )
            _track_staleness(event, query, None, False, stored_epoch)
            events.append(event)
            continue
        wall_ms = (time.perf_counter() - started) * 1000.0
        work_units = float(result.cost_evaluations + result.memo_entries)
        breaker_open = any(
            slot["state"] != BREAKER_CLOSED
            for slot in service.breaker.snapshot().values()
        )
        event = _event_from_result(
            seq,
            row["t"],
            query,
            _phase_of(seq, config),
            cache_hit=result.cache_hit,
            signature=result.signature,
            details=result.details,
            algorithm=result.algorithm,
            work_units=work_units,
            wall_ms=wall_ms,
            shard=ring.owner(result.signature) if result.signature else None,
            breaker_open=breaker_open,
            timing=config.timing,
            error=error,
        )
        _track_staleness(
            event, query, result.signature, result.cache_hit, stored_epoch
        )
        events.append(event)
    cache_stats = service.cache.stats()
    fleet = {
        "mode": "in-process",
        "shards": [
            {"shard": s, "hard_kills_avoided": 0, "restarts": 0}
            for s in range(config.virtual_shards)
        ],
        "cache": {
            "entries": cache_stats.get("entries", cache_stats.get("size")),
            "hits": cache_stats.get("hits"),
            "misses": cache_stats.get("misses"),
        },
        "drifted_queries": drifted_queries,
    }
    return events, fleet


def _http_post(
    host: str, port: int, path: str, payload: Dict[str, Any], timeout: float
) -> Tuple[int, Dict[str, Any]]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.loads(error.read())
        except Exception:
            return error.code, {}


def _run_against_frontdoor(
    config: ReplayConfig,
    queries: List[ReplayQuery],
    schedule: List[Dict[str, Any]],
    host: str,
    port: int,
    timeout: float = 60.0,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    from repro import serialize

    drift_seq = int(config.requests * config.drift_fraction_of_stream)
    drift_seed = random.Random(config.seed ^ 0x5EED).randrange(2**31)
    stored_epoch: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    drifted_queries = 0
    for row in schedule:
        seq = row["seq"]
        if seq == drift_seq:
            drifted_queries = _apply_drift(queries, config, drift_seed)
        query = queries[row["query_index"]]
        request = OptimizationRequest(
            query=query.catalog,
            algorithm="auto",
            stats_epoch=query.epoch,
            tag=query.qid,
        )
        envelope = {
            "version": 1,
            "request_id": f"replay-{seq}",
            "tenant": query.tenant,
            "request": serialize.request_to_dict(request),
        }
        started = time.perf_counter()
        status, reply = _http_post(
            host, port, "/v1/optimize", envelope, timeout
        )
        wall_ms = (time.perf_counter() - started) * 1000.0
        if status != 200 or reply.get("kind") != "optimize_reply":
            code = (reply.get("error") or {}).get("code", f"http_{status}")
            event = _event_from_result(
                seq,
                row["t"],
                query,
                _phase_of(seq, config),
                cache_hit=False,
                signature=None,
                details={},
                algorithm="auto",
                work_units=0.0,
                wall_ms=wall_ms,
                shard=reply.get("shard"),
                breaker_open=False,
                timing=config.timing,
                error=code,
            )
            _track_staleness(event, query, None, False, stored_epoch)
            events.append(event)
            continue
        result = reply.get("result") or {}
        details = result.get("details") or {}
        signature = result.get("signature")
        cache_hit = bool(result.get("cache_hit"))
        work_units = float(
            (result.get("cost_evaluations") or 0)
            + (result.get("memo_entries") or 0)
        )
        event = _event_from_result(
            seq,
            row["t"],
            query,
            _phase_of(seq, config),
            cache_hit=cache_hit,
            signature=signature,
            details=details,
            algorithm=result.get("algorithm", "auto"),
            work_units=work_units,
            wall_ms=wall_ms,
            shard=reply.get("shard"),
            breaker_open=False,
            timing=config.timing,
        )
        _track_staleness(event, query, signature, cache_hit, stored_epoch)
        events.append(event)

    fleet: Dict[str, Any] = {
        "mode": "frontdoor",
        "shards": [],
        "drifted_queries": drifted_queries,
    }
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/v1/stats", timeout=timeout
        ) as response:
            stats = json.loads(response.read())
        for shard in stats.get("shards", []):
            fleet["shards"].append(
                {
                    "shard": shard.get("shard"),
                    "hard_kills_avoided": shard.get("hard_kills_avoided", 0),
                    "restarts": shard.get("restarts", 0),
                }
            )
        fleet["frontdoor"] = stats.get("frontdoor")
    except Exception:
        fleet["stats_unavailable"] = True
    return events, fleet


def run_replay(
    config: ReplayConfig,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Run one replay; returns ``(events, summary)``.

    With ``host``/``port`` the stream is POSTed to a live front door;
    otherwise it drives a fresh in-process service.
    """
    queries, schedule = build_stream(config)
    if host is not None and port is not None:
        events, fleet = _run_against_frontdoor(
            config, queries, schedule, host, port
        )
    else:
        events, fleet = _run_in_process(config, queries, schedule)
    return events, summarize(events, config, fleet)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; deterministic for a fixed sample order."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(p * (len(ordered) - 1)))))
    return ordered[index]


def _latency_stats(events: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    samples = [e["latency_ms"] for e in events]
    return {
        "p50_ms": round(percentile(samples, 0.50), 6),
        "p95_ms": round(percentile(samples, 0.95), 6),
        "p99_ms": round(percentile(samples, 0.99), 6),
    }


def _rung_mix(events: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    mix: Dict[str, int] = {}
    for event in events:
        mix[event["rung"]] = mix.get(event["rung"], 0) + 1
    return dict(sorted(mix.items()))


def summarize(
    events: List[Dict[str, Any]],
    config: ReplayConfig,
    fleet: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Fold the event log into the machine-readable ``REPLAY.json`` body."""
    from repro.bench.report import collect_bench_reports

    phases: Dict[str, Any] = {}
    for phase in PHASES:
        rows = [e for e in events if e["phase"] == phase]
        hits = sum(1 for e in rows if e["cache_hit"])
        phases[phase] = {
            "requests": len(rows),
            "cache_hits": hits,
            "hit_rate": round(hits / len(rows), 6) if rows else None,
            "rung_mix": _rung_mix(rows),
            "latency": _latency_stats(rows),
            "breaker_trips": sum(1 for e in rows if e["breaker_open"]),
            "stale_plan_serves": sum(1 for e in rows if e["stale"]),
            "drift_invalidations": sum(1 for e in rows if e["invalidated"]),
            "errors": sum(1 for e in rows if e["error"]),
        }
    tenants: Dict[str, Any] = {}
    for event in events:
        slot = tenants.setdefault(
            event["tenant"], {"requests": 0, "cache_hits": 0}
        )
        slot["requests"] += 1
        slot["cache_hits"] += int(event["cache_hit"])
    for name, slot in tenants.items():
        slot["share"] = round(slot["requests"] / max(len(events), 1), 6)
        slot["hit_rate"] = (
            round(slot["cache_hits"] / slot["requests"], 6)
            if slot["requests"]
            else None
        )
    total_hits = sum(1 for e in events if e["cache_hit"])
    return {
        "kind": "replay_report",
        "version": 1,
        "config": config.to_dict(),
        "totals": {
            "requests": len(events),
            "cache_hits": total_hits,
            "hit_rate": (
                round(total_hits / len(events), 6) if events else None
            ),
            "stale_plan_serves": sum(1 for e in events if e["stale"]),
            "drift_invalidations": sum(1 for e in events if e["invalidated"]),
            "breaker_trips": sum(1 for e in events if e["breaker_open"]),
            "errors": sum(1 for e in events if e["error"]),
            "latency": _latency_stats(events),
        },
        "phases": phases,
        "tenants": dict(sorted(tenants.items())),
        "rung_mix": _rung_mix(events),
        "fleet": fleet or {},
        "bench_reports": sorted(collect_bench_reports()),
    }


def write_outputs(
    events: List[Dict[str, Any]],
    summary: Dict[str, Any],
    outdir: str,
) -> Dict[str, Any]:
    """Write the event log, ``REPLAY.json``, and every registered figure.

    Returns a manifest ``{"events": path, "report": path, "figures":
    {name: {"svg": path, "png": path | None}}}``.
    """
    from repro.bench.figures import render_all

    os.makedirs(outdir, exist_ok=True)
    events_path = os.path.join(outdir, "replay_events.jsonl")
    with open(events_path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
            )
            handle.write("\n")
    report_path = os.path.join(outdir, "REPLAY.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    figures = render_all(events, summary, outdir)
    return {"events": events_path, "report": report_path, "figures": figures}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli replay",
        description="Replay a seeded multi-tenant query stream and render "
        "the fleet dashboard.",
    )
    parser.add_argument("--seed", type=int, default=20110411)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--queries-per-tenant", type=int, default=6)
    parser.add_argument("--zipf", type=float, default=1.2)
    parser.add_argument(
        "--timing",
        choices=["virtual", "wall"],
        default="virtual",
        help="virtual = deterministic latency proxy (byte-stable runs); "
        "wall = measured milliseconds",
    )
    parser.add_argument(
        "--sub-quantum-drift",
        action="store_true",
        help="drift statistics below the signature rounding quantum "
        "(reproduces the stale-plan bug's conditions)",
    )
    parser.add_argument("--outdir", default="replay_out")
    parser.add_argument(
        "--host", default=None, help="drive a live front door instead"
    )
    parser.add_argument("--port", type=int, default=None)
    args = parser.parse_args(argv)

    config = ReplayConfig(
        seed=args.seed,
        requests=args.requests,
        tenants=args.tenants,
        queries_per_tenant=args.queries_per_tenant,
        zipf_s=args.zipf,
        timing=args.timing,
        sub_quantum_drift=args.sub_quantum_drift,
    )
    host, port = args.host, args.port
    if (host is None) != (port is None):
        parser.error("--host and --port must be given together")
    events, summary = run_replay(config, host=host, port=port)
    manifest = write_outputs(events, summary, args.outdir)

    totals = summary["totals"]
    skewed = summary["phases"]["skewed"]
    print(
        f"replay: {totals['requests']} requests, "
        f"hit rate {totals['hit_rate']:.2%} "
        f"(skewed phase {skewed['hit_rate']:.2%}), "
        f"{totals['drift_invalidations']} drift invalidations, "
        f"{totals['stale_plan_serves']} stale plan serves, "
        f"{totals['errors']} errors"
    )
    print(f"wrote {manifest['report']}")
    print(f"wrote {manifest['events']}")
    for name, paths in sorted(manifest["figures"].items()):
        print(f"wrote {paths['svg']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
