"""Paths, percentiles and query conversions shared by the benchmark's processes.

Importing this module imports nothing from ``src/``; the helpers that
build optimizer objects import :mod:`repro` when first called, so the
orchestrator (``run.py``) stays a plain stdlib process.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 5

#: Fewest rounds (compile passes, serve rounds) of a timed run; every
#: round sends the same requests.
MIN_ROUNDS = 3

#: Calls per second each workload's closed loop sustained, slow stretches
#: included, on the host the bounds were calibrated on (2 vCPUs).  They
#: only turn ``--seconds`` into a request count, fixed before the run
#: starts, so a faster or slower commit sends exactly the same requests.
SIZING_QPS = {
    "compile_sparse": 115.0,
    "serve_churn": 360.0,
}


def child_env(trace_dir=None):
    """Environment for every process the benchmark starts.

    ``src`` and this directory go on the path; the C kernel is built
    into and loaded from ``runs/native`` and compiler scratch goes to
    ``runs/tmp``, so nothing is written outside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["REPRO_NATIVE_BUILD_DIR"] = os.path.join(RUNS, "native")
    tmp = os.path.join(RUNS, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env.pop("REPRO_NATIVE_KERNEL", None)
    env.pop("REPRO_REFERENCE_KERNEL", None)
    env.pop("REPRO_FAULTS", None)
    if trace_dir is not None:
        env["E2E_TRACE_DIR"] = trace_dir
    return env


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path, document):
    """Write atomically, so a killed run never leaves a torn file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    scratch = f"{path}.{os.getpid()}"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(scratch, path)


# ----------------------------------------------------------------------
# Percentiles


def percentile(samples, q, min_beyond=10):
    """Nearest-rank ``q``-quantile that has ``min_beyond`` samples above it.

    The rank is ``ceil(q * n)``; at least ``min_beyond`` samples must
    rank strictly above it, so p99 needs n >= 1000 and p50 needs n >= 20.
    Raises :class:`ValueError` when the sample cannot support ``q``.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        raise ValueError(
            f"{n} samples cannot support the {q:g} quantile with "
            f"{min_beyond} samples beyond it"
        )
    return sorted(samples)[rank - 1]


def best_per_key(pairs):
    """The smallest value per key of ``(key, value)`` pairs, in key order.

    A compile run optimizes every query once per pass, and its passes
    span the whole run.  The shared host switches between a fast and a
    ~1.6x slower speed many times a second, while the share of slow time
    drifts over tens of seconds; a query's best time over the passes is
    its cost in the run's fastest stretch.  Percentiles over the bests
    repeat from run to run about three times as closely as percentiles
    over every call, which follow the host's drift.
    """
    best = {}
    for key, value in pairs:
        if key not in best or value < best[key]:
            best[key] = value
    return [best[key] for key in sorted(best)]


def geomean(values):
    """Geometric mean (0.0 for no values: every request failed)."""
    if not values:
        return 0.0
    return math.exp(sum(map(math.log, values)) / len(values))


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ----------------------------------------------------------------------
# Queries as optimizer objects (imports repro)


def catalog_of(query):
    """The :class:`repro.catalog.statistics.Catalog` of a generated query."""
    from repro.catalog.statistics import Catalog, Relation
    from repro.graph.query_graph import QueryGraph

    names = query.get("names") or [f"R{i}" for i in range(query["n"])]
    graph = QueryGraph(query["n"], [tuple(e) for e in query["edges"]])
    relations = [Relation(name, card) for name, card in zip(names, query["cards"])]
    sels = {tuple(e): s for e, s in zip(query["edges"], query["sels"])}
    return Catalog(graph, relations, sels)


def cost_model_of(query):
    """``None`` (the C_out default) or the physical model."""
    if query["model"] == "physical":
        from repro.cost.physical import PhysicalCostModel

        return PhysicalCostModel()
    return None


def recost(plan, query):
    """Price a served plan tree under the query's own cost model.

    Heuristic rungs price plans under their own objective, so a degraded
    plan is compared to the oracle only after this re-pricing.
    """
    from repro.cost.cout import CoutCostModel

    model = cost_model_of(query) or CoutCostModel()

    def walk(node):
        if node.is_leaf:
            return 0.0
        local, _ = model.join_cost(
            node.left.cardinality, node.right.cardinality, node.cardinality
        )
        return local + walk(node.left) + walk(node.right)

    return walk(plan)


# ----------------------------------------------------------------------
# Wire documents (plain dicts; the v1 schema of docs/SERVING.md)


def wire_request(query, algorithm):
    """The v1 ``optimization_request`` document for a generated query."""
    names = query.get("names") or [f"R{i}" for i in range(query["n"])]
    cost_model = None
    if query["model"] == "physical":
        cost_model = {"kind": "cost_model", "version": 1, "class": "PhysicalCostModel", "params": {}}
    return {
        "kind": "optimization_request",
        "version": 1,
        "query": {
            "kind": "catalog",
            "version": 1,
            "graph": {
                "kind": "query_graph",
                "version": 1,
                "n_vertices": query["n"],
                "edges": query["edges"],
            },
            "relations": [
                {"name": name, "cardinality": card}
                for name, card in zip(names, query["cards"])
            ],
            "selectivities": [
                {"edge": e, "selectivity": s} for e, s in zip(query["edges"], query["sels"])
            ],
        },
        "algorithm": algorithm,
        "cost_model": cost_model,
        "stats_epoch": query.get("epoch", 0),
    }


def close_enough(served, oracle, rel=1e-9):
    return abs(served - oracle) <= rel * max(abs(oracle), 1e-300)


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)
