"""Seeded input generation for the end-to-end benchmark.

Everything here is plain stdlib code over plain data: a query is a dict
``{"n", "edges", "cards", "sels", "model", "shape"}`` and nothing under
``src/`` is imported, so no change to the optimizer can alter the inputs
it is measured on.

Inputs have two halves:

* **Structures** -- the graphs, which queries use the physical cost
  model, and the serve pool's popularity order -- come from one fixed
  seed per workload.  The search space of a join query is set by its
  graph alone, and the engines' work per query with it, so fixing the
  graphs keeps every seed's work profile identical: a run's p50 and p99
  then measure the code, not which few giant trees a seed happened to
  draw.  Drawing them costs seconds (the #ccp cap needs a count per
  draw), so :func:`structures` caches them on disk, keyed by this
  file's own hash.
* **Statistics** -- each graph has ``STAT_VARIANTS`` fixed sets of
  log-normal statistics (and, on ``serve_churn``, a drifted twin of
  each), and ``--seed`` picks one per query.  A seed's inputs are then
  a new combination of queries the oracle has mostly priced before, so
  its content-keyed cache (``oracle.py``) spares a run the seconds of
  pricing every query afresh.

The compile call order and the serve request sequence are fixed per
workload the same way (``compile_load.py``,
``serve_load.py``), so two seeds differ only in the numbers the engines
see.

:func:`digest` fingerprints a workload's inputs; ``pins.json`` holds the
digest of every workload's default-seed inputs, so a drifting generator
(or a different ``random`` implementation) refuses to run instead of
silently measuring something else.

Graph shapes follow the paper's Sec. IV generator: random trees from
uniform Pruefer sequences, random cyclic graphs as a random spanning
tree plus uniformly drawn extra edges, and the fixed chain, cycle, star
and clique shapes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import sys

WORKLOADS = ("compile_sparse", "serve_churn")

#: Seed whose input digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: Largest search space (#ccp) a compile_sparse query may have.  An
#: uncapped star-like n=19 tree has ~2.4M ccps and takes seconds, which
#: alone would decide a run's tail and mean.  At 10 000 ccps the slowest
#: query takes ~40 ms, short enough to fall inside one of the host's
#: fast stretches (see ``common.best_per_key``); at 50 000 it took
#: ~150 ms, and the run-to-run spread of its p99 was about twice as large.
SPARSE_CCP_CAP = 10_000

#: serve_churn's per-shard admission budget (``--max-ccp-budget``), and
#: the cap on its sparse queries.  Every rung of the ladder then stays
#: below ~25 ms of work, so the tail is made of many ordinary misses
#: rather than a few giants, each short enough for its best round to
#: fall in a fast stretch of host.
SERVE_CCP_CAP = 5_000


def _sig(value: float, digits: int = 6) -> float:
    """Round to ``digits`` significant figures (short, stable JSON)."""
    return float(f"{value:.{digits}g}")


# ----------------------------------------------------------------------
# Graphs


def _tree_edges(n, rng):
    """Edges of a uniformly random labelled tree (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def _with_extra_edges(n, edges, extra, rng):
    present = set(edges)
    missing = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    rng.shuffle(missing)
    return sorted(present | set(missing[:extra]))


def _shape_edges(shape, n):
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "clique":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    raise ValueError(f"unknown shape {shape!r}")


def _graph(n, edges, shape, model="cout"):
    return {"n": n, "edges": [list(e) for e in edges], "shape": shape, "model": model}


class _CapExceeded(Exception):
    pass


def count_ccps(n, edges, cap):
    """#ccp of a connected graph (symmetric pairs once), or ``None`` above ``cap``.

    Moerkotte & Neumann's csg/cmp enumeration, counting only; it stops
    once the count passes ``cap``, so rejecting an oversized query costs
    about ``cap`` steps.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def neighborhood(s):
        out = 0
        rest = s
        while rest:
            low = rest & -rest
            out |= adj[low.bit_length() - 1]
            rest ^= low
        return out & ~s

    def submasks(mask):
        out = []
        sub = (-mask) & mask
        while sub:
            out.append(sub)
            sub = (sub - mask) & mask
        return out

    def count_grown(s, excluded):
        # Connected enlargements of ``s`` (EnumerateCsgRec), counted only.
        nb = neighborhood(s) & ~excluded
        if not nb:
            return 0
        subs = submasks(nb)
        blocked = excluded | nb
        return len(subs) + sum(count_grown(s | sub, blocked) for sub in subs)

    total = 0

    def complements(csg):
        # EnumerateCmp(csg), counted only.
        nonlocal total
        lowest = csg & -csg
        excluded = (lowest | (lowest - 1)) | csg
        nb = neighborhood(csg) & ~excluded
        index = nb.bit_length() - 1
        while index >= 0:
            seed = 1 << index
            if nb & seed:
                total += 1 + count_grown(seed, excluded | (nb & (seed - 1)))
            index -= 1
        if total > cap:
            raise _CapExceeded

    def csgs(s, excluded):
        nb = neighborhood(s) & ~excluded
        if not nb:
            return
        subs = submasks(nb)
        for sub in subs:
            complements(s | sub)
        for sub in subs:
            csgs(s | sub, excluded | nb)

    try:
        for index in range(n - 1, -1, -1):
            seed = 1 << index
            complements(seed)
            csgs(seed, seed - 1)
    except _CapExceeded:
        return None
    return total


def _sparse_graph(rng, tree_n, cyclic_n, fixed_n, cap):
    """One graph of the paper's sparse traffic, redrawn above ``cap`` ccps.

    35% random trees, 35% random cyclic graphs with ``n - 1 + [1, n/2]``
    edges, 30% chains, cycles and stars.
    """
    while True:
        kind = rng.random()
        if kind < 0.35:
            n = rng.randint(*tree_n)
            edges, shape = _tree_edges(n, rng), "tree"
        elif kind < 0.70:
            n = rng.randint(*cyclic_n)
            extra = rng.randint(1, n // 2)
            edges = _with_extra_edges(n, _tree_edges(n, rng), extra, rng)
            shape = "cyclic"
        else:
            shape = rng.choice(("chain", "cycle", "star"))
            n = rng.randint(*fixed_n)
            edges = _shape_edges(shape, n)
        if count_ccps(n, edges, cap) is not None:
            return _graph(n, edges, shape)


# ----------------------------------------------------------------------
# Structures (fixed per workload)


def _compile_sparse_structures(rng):
    # 256 queries, so that a run can time each one about twenty times,
    # spread over the whole run (see run.py).
    graphs = [
        _sparse_graph(rng, (10, 20), (10, 16), (8, 20), SPARSE_CCP_CAP)
        for _ in range(256)
    ]
    for index in rng.sample(range(len(graphs)), len(graphs) // 4):
        graphs[index]["model"] = "physical"
    return {"graphs": graphs}


def _serve_churn_structures(rng):
    sparse = [_sparse_graph(rng, (6, 14), (6, 14), (6, 14), SERVE_CCP_CAP) for _ in range(896)]
    # Cliques n=10..13 resolve to DPccp under "auto" and are priced over
    # the admission budget, so admission reroutes them to dpconv.
    dense = [_graph(n, _shape_edges("clique", n), "clique") for n in range(10, 14)] * 15
    # Physical-cost queries over budget: 11-stars (5120 ccps) take the
    # anytime rung, because the top-down engine honours deadlines;
    # cliques resolve to DPccp, which cannot, and fall to GOO.
    physical = [
        _graph(11, _shape_edges("star", 11), "star", "physical"),
        _graph(10, _shape_edges("clique", 10), "clique", "physical"),
    ] * 4
    # Popularity rank is pool order within each class, so shuffle once.
    for group in (sparse, dense, physical):
        rng.shuffle(group)
    graphs = sparse + dense + physical
    return {
        "graphs": graphs,
        "classes": {
            "sparse": [0, len(sparse)],
            "dense": [len(sparse), len(sparse) + len(dense)],
            "physical": [len(sparse) + len(dense), len(graphs)],
        },
        "drifted": sorted(rng.sample(range(len(graphs)), len(graphs) // 10)),
    }


_STRUCTURES = {
    "compile_sparse": _compile_sparse_structures,
    "serve_churn": _serve_churn_structures,
}


def _source_tag():
    """Hash of this file plus the interpreter version (the cache key)."""
    with open(__file__, "rb") as handle:
        source = handle.read()
    version = ".".join(map(str, sys.version_info[:2]))
    return hashlib.sha256(source + version.encode()).hexdigest()[:16]


def structures(workload, cache_dir=None):
    """The fixed graphs of ``workload``, cached under ``cache_dir``."""
    if workload not in _STRUCTURES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"structures-{workload}-{_source_tag()}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            pass
    built = _STRUCTURES[workload](random.Random(f"e2e/{workload}/structure"))
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        scratch = f"{path}.{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(built, handle)
        os.replace(scratch, path)
    return built


# ----------------------------------------------------------------------
# Statistics and per-seed inputs


def _with_stats(graph, rng):
    """Attach log-normal statistics to a graph."""
    query = dict(graph)
    query["cards"] = [
        _sig(max(1.0, rng.lognormvariate(math.log(1e4), 2.0))) for _ in range(graph["n"])
    ]
    query["sels"] = [
        _sig(min(1.0, rng.lognormvariate(math.log(1e-2), 1.5))) for _ in graph["edges"]
    ]
    return query


def _drift(query, rng):
    """The query after a statistics refresh (new values, next epoch)."""
    out = dict(query)
    out["cards"] = [_sig(max(1.0, c * rng.lognormvariate(0.0, 0.7))) for c in query["cards"]]
    out["sels"] = [_sig(min(1.0, s * rng.lognormvariate(0.0, 0.7))) for s in query["sels"]]
    out["epoch"] = 1
    return out


#: Per-workload constants every result and the README quote.
SETTINGS = {
    "compile_sparse": {"algorithm": "tdmincutbranch"},
    "serve_churn": {
        "algorithm": "auto",
        "server_args": ["--max-ccp-budget", str(SERVE_CCP_CAP), "--capacity", "64"],
        "mix": {"dense": 0.10, "physical": 0.005},
        "zipf_s": 1.0,
    },
}


#: Statistics sets per graph; ``--seed`` picks one for each query.
STAT_VARIANTS = 4


def make_inputs(workload, seed, cache_dir=None):
    """Generate one workload's inputs for ``seed``."""
    shape = structures(workload, cache_dir)
    rng = random.Random(f"e2e/{workload}/{seed}")
    inputs = {"workload": workload, "seed": seed, **SETTINGS[workload]}
    picks = [rng.randrange(STAT_VARIANTS) for _ in shape["graphs"]]
    inputs["queries"] = [
        _with_stats(graph, random.Random(f"e2e/{workload}/stats/{index}/{pick}"))
        for index, (graph, pick) in enumerate(zip(shape["graphs"], picks))
    ]
    if workload == "serve_churn":
        inputs["classes"] = shape["classes"]
        inputs["drifted"] = {
            str(i): _drift(
                inputs["queries"][i], random.Random(f"e2e/{workload}/drift/{i}/{picks[i]}")
            )
            for i in shape["drifted"]
        }
    return inputs


def digest(inputs):
    """sha256 of the canonical JSON of a workload's inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def zipf_picker(size, s, rng):
    """Draw indices ``0..size-1`` with weight ``1 / (rank + 1) ** s``."""
    cumulative = []
    total = 0.0
    for rank in range(size):
        total += 1.0 / (rank + 1) ** s
        cumulative.append(total)

    def pick():
        target = rng.random() * total
        lo, hi = 0, size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    return pick


if __name__ == "__main__":
    # Print the default-seed digests that pins.json must hold.
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs", "structures")
    print(
        json.dumps(
            {w: digest(make_inputs(w, DEFAULT_SEED, cache)) for w in WORKLOADS}, indent=2
        )
    )
