"""Property: a memoized cache hit serves the plan and bytes a fresh one would.

Random sequences of wire documents go through the shard's encode path,
``sharding._optimize_on_shard``, the way the front door sends them: the
digest of the unstamped document, the deadline stamped on top.  Each
step repeats a document, relabels it isomorphically, drifts its
statistics past the rounding quantum, nudges them below it (same
signature, so a recomputed entry may replace the one a key last served),
or nudges them while bumping ``stats_epoch``; each is sent with or
without a digest.  Small cache capacities make
evictions and recomputations common.

Every reply body must be, byte for byte, ``json.dumps`` of the full
reply envelope of the same result, and every served plan must equal the
current cache entry's plan rebound to this document's vertex numbering
and relation names — never the plan of an entry the key served before.
"""

import dataclasses
import json
import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OptimizationRequest, OptimizerService, WorkloadGenerator
from repro import serialize
from repro.catalog.statistics import Catalog, Relation
from repro.optimizer.api import OptimizationResult, optimize_request
from repro.plan.jointree import JoinTree
from repro.service.core import _rebind_plan, service_signature
from repro.service.executor import stamp_deadline
from repro.service.frontdoor import _request_digest
from repro.service.sharding import _optimize_on_shard, parse_request_document

from .conftest import relabelled_catalog

SHAPES = ("chain", "cycle", "star")


@st.composite
def documents(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 1000))
    catalog = WorkloadGenerator(seed=seed).fixed_shape(shape, n).catalog
    request = OptimizationRequest(query=catalog, algorithm="auto")
    return serialize.request_to_dict(request)


#: ``(op, pool index, argument, with digest)``; the index is taken
#: modulo the pool.  Each op derives one of a few documents from a pool
#: document, so replays and shared signatures are common.  A job without
#: a digest (the full path) stores and evicts cache entries without
#: touching the digest memo, so a memoized key can outlive the entry it
#: last served.
operations = st.tuples(
    st.sampled_from(
        ["repeat", "repeat", "relabel", "drift", "nudge", "nudge", "epoch"]
    ),
    st.integers(0, 63),
    st.integers(0, 1),
    st.booleans(),
)


def scaled(document, cardinality=1.0, selectivity=1.0, epoch_bump=0):
    out = json.loads(json.dumps(document))
    if cardinality != 1.0:  # an integer cardinality stays one
        for relation in out["query"]["relations"]:
            relation["cardinality"] *= cardinality
    for edge in out["query"]["selectivities"]:
        edge["selectivity"] *= selectivity
    out["stats_epoch"] = out.get("stats_epoch", 0) + epoch_bump
    return out


def relabelled(document, seed):
    request = serialize.request_from_dict(document)
    catalog = request.resolved_catalog()
    permutation = list(range(catalog.graph.n_vertices))
    random.Random(seed).shuffle(permutation)
    query = relabelled_catalog(catalog, permutation)
    return serialize.request_to_dict(dataclasses.replace(request, query=query))


def varied(document, op, argument):
    if op == "relabel":
        return relabelled(document, argument)
    if op == "drift":
        factor = (3.0, 1000.0)[argument % 2]
        return scaled(document, cardinality=factor, selectivity=0.5)
    if op == "nudge":
        # Far below the 4-digit rounding quantum: same signature, new costs.
        return scaled(document, selectivity=1.0 + 1e-7)
    if op == "epoch":
        return scaled(document, 1.0 + 1e-9, 1.0 + 1e-9, epoch_bump=1)
    return document


class Shard:
    """One shard's service and encode path, keeping each served result."""

    def __init__(self, capacity):
        self.service = OptimizerService(cache_capacity=capacity)
        self.results = []
        optimize = self.service.optimize

        def recording(*args, **kwargs):
            result = optimize(*args, **kwargs)
            self.results.append(result)
            return result

        self.service.optimize = recording

    def serve(self, document, request_id, digest=True):
        job = {
            "op": "optimize",
            "request": stamp_deadline(document, 30.0),
            "request_id": request_id,
            "digest": _request_digest(document) if digest else None,
        }
        body, status = _optimize_on_shard(self.service, job, 0)
        assert status == 200, body
        return body, self.results[-1]

    def entry(self, signature):
        for entry in self.service.cache.entries():
            if entry.signature == signature:
                return entry
        return None


def check_step(shard, document, request_id, digest=True):
    body, result = shard.serve(document, request_id, digest)
    envelope = {
        "version": 1,
        "kind": "optimize_reply",
        "request_id": request_id,
        "shard": 0,
        "result": serialize.result_to_dict(result),
    }
    assert body == json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    entry = shard.entry(result.signature)
    if entry is not None:
        request = parse_request_document(document)
        catalog = request.resolved_catalog()
        order = service_signature(request, catalog)[3]
        assert result.plan == _rebind_plan(entry.plan, order, catalog)
    return result


def run_sequence(capacity, pool, steps):
    shard = Shard(capacity)
    for number, (op, index, argument, digest) in enumerate(steps):
        document = varied(pool[index % len(pool)], op, argument)
        check_step(shard, document, f"r{number}", digest)
    return shard


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(documents(), min_size=1, max_size=2),
    steps=st.lists(operations, min_size=10, max_size=32),
)
def test_memoized_hits_serve_the_current_entry_in_identical_bytes(pool, steps):
    for capacity in (1, 2, 8):
        run_sequence(capacity, pool, steps)


def document_of(shape, n, seed):
    catalog = WorkloadGenerator(seed=seed).fixed_shape(shape, n).catalog
    return serialize.request_to_dict(
        OptimizationRequest(query=catalog, algorithm="auto")
    )


def test_a_recomputed_entry_is_rebound_not_the_one_served_before():
    # The sequence the entry identity test exists for: a key serves a
    # hit; jobs without a digest evict its entry and, through a
    # sub-quantum nudge, recompute the same signature with other costs;
    # the key, still memoized, must serve the new entry.
    first = document_of("chain", 5, 7)
    other = document_of("star", 4, 8)
    nudged = varied(first, "nudge", None)
    shard = Shard(capacity=1)
    check_step(shard, first, "a")
    hit = check_step(shard, first, "b")
    assert hit.cache_hit
    check_step(shard, other, "c", digest=False)
    assert not check_step(shard, nudged, "d", digest=False).cache_hit
    again = check_step(shard, first, "e")
    assert again.cache_hit and again.plan != hit.plan


def test_replays_reuse_the_rebound_plan_and_its_json():
    document = document_of("cycle", 6, 3)
    shard = Shard(capacity=8)
    check_step(shard, document, "a")
    first_hit = check_step(shard, document, "b")
    replay = check_step(shard, document, "c")
    assert replay.plan is first_hit.plan
    traces = shard.service.traces
    assert traces.get(first_hit.trace_id).find("rebind").attributes == {
        "reused": False
    }
    assert traces.get(replay.trace_id).find("rebind").attributes == {
        "reused": True
    }
    key = shard.service._digests.peek(_request_digest(document))
    assert key.served.wire == serialize.plan_to_json(replay.plan)


def test_in_process_hits_reuse_the_rebound_plan():
    catalog = WorkloadGenerator(seed=2).fixed_shape("chain", 6).catalog
    service = OptimizerService()
    service.optimize(catalog)
    first_hit = service.optimize(catalog)
    replay = service.optimize(catalog)
    assert first_hit.cache_hit and replay.cache_hit
    assert replay.plan is first_hit.plan
    assert service.traces.get(replay.trace_id).find("rebind").attributes == {
        "reused": True
    }


def test_concurrent_hits_keep_each_catalog_its_own_plan():
    # Two catalogs share a signature (same graph, sub-quantum different
    # statistics, other relation names) and a third evicts them at
    # capacity 1, so threads keep replacing the keys' last hits while
    # others read them.  A torn entry-and-plan pair would hand a request
    # another catalog's names or a tree of neither optimum.
    base = WorkloadGenerator(seed=5).fixed_shape("cycle", 6).catalog
    twin = Catalog(
        base.graph,
        [Relation(f"T{r.name}", r.cardinality) for r in base.relations],
        {
            edge: base.selectivity(*edge) * (1.0 + 1e-7)
            for edge in base.graph.edges
        },
    )
    other = WorkloadGenerator(seed=6).fixed_shape("star", 5).catalog
    catalogs = (base, twin, other)
    costs = {optimize_request(OptimizationRequest(query=c)).cost for c in catalogs}
    service = OptimizerService(cache_capacity=1)
    failures = []

    def hammer(offset):
        for step in range(150):
            catalog = catalogs[(step + offset) % 3]
            result = service.optimize(catalog)
            names = {leaf.relation for leaf in result.plan.leaves()}
            if names != {r.name for r in catalog.relations}:
                failures.append(("names", catalog))
            if result.cost not in costs:
                failures.append(("cost", result.cost))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(offset,)) for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_batch_hits_rebind_every_time():
    catalog = WorkloadGenerator(seed=2).fixed_shape("chain", 6).catalog
    service = OptimizerService()
    service.optimize(catalog)
    first, second = service.optimize_batch([catalog, catalog], workers=1)
    assert first.cache_hit and second.cache_hit
    assert first.plan == second.plan and first.plan is not second.plan


class TestReplyToJson:
    def plan(self):
        leaf_a = JoinTree(vertex_set=1, cardinality=10.0, cost=0.0, relation="A")
        leaf_b = JoinTree(vertex_set=2, cardinality=2.5, cost=0.0, relation="B")
        return JoinTree(
            vertex_set=3,
            cardinality=0.1 + 0.2,
            cost=1e-7,
            left=leaf_a,
            right=leaf_b,
            implementation="hash",
        )

    def result(self, **fields):
        base = dict(
            plan=self.plan(),
            algorithm="auto",
            elapsed_seconds=1.5e-5,
            memo_entries=3,
            cost_evaluations=2,
            cardinality_estimations=1,
        )
        base.update(fields)
        return OptimizationResult(**base)

    def test_splice_equals_the_full_encoding_whatever_the_strings_hold(self):
        tricky = '"plan":null,"result":{"plan":null}'
        result = self.result(
            tag=tricky,
            details={"plan": None, "nested": {"plan": None}, "é": tricky},
            signature="☃",
        )
        for envelope in (
            {"version": 1, "kind": "optimize_reply", "request_id": tricky, "shard": 1},
            {"request_id": None},
            {},
        ):
            full = json.dumps(
                {**envelope, "result": serialize.result_to_dict(result)},
                separators=(",", ":"),
            ).encode("utf-8")
            spliced = serialize.reply_to_json(
                envelope, result, serialize.plan_to_json(result.plan)
            )
            assert spliced == full
