"""Property: the shard's digest memo never serves a stale or foreign plan.

Random sequences of wire documents go through
:meth:`OptimizerService.recall` and ``optimize(digest=...)`` the way
``sharding._optimize_on_shard`` sends them: the digest of the unstamped
document, the deadline stamped on top.  The documents are small chains,
cycles and stars; each step repeats one, drifts its statistics past the
rounding quantum, drifts them below it while bumping ``stats_epoch``,
relabels it isomorphically, or sends it with a keyword override.

Every reply must cost what a fresh :func:`optimize_request` of the same
document costs, carry the signature this document keys to, be a valid
plan over this document's catalog, and never be a cache hit on an entry
stored under another ``stats_epoch`` (a stale serve).
"""

import dataclasses
import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OptimizationRequest, OptimizerService, WorkloadGenerator
from repro import serialize
from repro.cost.cout import CoutCostModel
from repro.optimizer.api import optimize_request
from repro.plan.validation import validate_plan
from repro.service.core import service_signature
from repro.service.executor import stamp_deadline
from repro.service.frontdoor import _request_digest
from repro.service.sharding import parse_request_document

from .conftest import relabelled_catalog

SHAPES = ("chain", "cycle", "star")
OVERRIDES = ("dpccp", "tdmincutlazy", "dpsub")


@st.composite
def documents(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 1000))
    catalog = WorkloadGenerator(seed=seed).fixed_shape(shape, n).catalog
    request = OptimizationRequest(query=catalog, algorithm="auto")
    return serialize.request_to_dict(request)


#: ``(op, pool index, argument)``; the index is taken modulo the pool.
operations = st.one_of(
    st.tuples(st.just("repeat"), st.integers(0, 63), st.none()),
    st.tuples(
        st.just("drift"), st.integers(0, 63), st.sampled_from([3.0, 1000.0])
    ),
    st.tuples(st.just("epoch"), st.integers(0, 63), st.none()),
    st.tuples(st.just("relabel"), st.integers(0, 63), st.integers(0, 2**16)),
    st.tuples(
        st.just("override"), st.integers(0, 63), st.sampled_from(OVERRIDES)
    ),
)


def scaled(document, cardinality=1.0, selectivity=1.0, epoch_bump=0):
    out = json.loads(json.dumps(document))
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


def serve(service, document, **overrides):
    """One shard op: recall by the unstamped document's digest, else decode."""
    digest = _request_digest(document)
    stamped = stamp_deadline(document, 30.0)
    request = service.recall(digest, stamped["deadline_seconds"])
    if request is None:
        request = parse_request_document(stamped)
    return service.optimize(request, digest=digest, **overrides)


def run_sequence(capacity, pool, steps):
    pool = list(pool)
    service = OptimizerService(cache_capacity=capacity)
    stored_epoch = {}
    for op, index, argument in steps:
        document = pool[index % len(pool)]
        overrides = {}
        if op == "drift":
            document = scaled(document, cardinality=argument, selectivity=0.5)
        elif op == "epoch":
            document = scaled(document, 1.0 + 1e-9, 1.0 + 1e-9, epoch_bump=1)
        elif op == "relabel":
            document = relabelled(document, argument)
        elif op == "override":
            overrides = {"algorithm": argument}
        if op in ("drift", "epoch", "relabel"):
            pool.append(document)
        result = serve(service, document, **overrides)

        request = dataclasses.replace(
            parse_request_document(document), **overrides
        )
        catalog = request.resolved_catalog()
        fresh = optimize_request(request)
        assert math.isclose(result.cost, fresh.cost, rel_tol=1e-9), op
        assert result.signature == service_signature(request, catalog)[2], op
        assert validate_plan(result.plan, catalog, CoutCostModel()) == [], op
        epoch = request.stats_epoch
        if result.cache_hit:
            stored = stored_epoch.get(result.signature, epoch)
            assert stored == epoch, f"{op}: served a plan of epoch {stored}"
        else:
            stored_epoch[result.signature] = epoch


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 8]),
    pool=st.lists(documents(), min_size=1, max_size=3),
    steps=st.lists(operations, min_size=1, max_size=12),
)
def test_digest_memo_never_serves_a_stale_or_foreign_plan(capacity, pool, steps):
    run_sequence(capacity, pool, steps)


def test_epoch_bump_after_repeat_is_computed_fresh():
    # The sequence only the stats_epoch signature field separates: a
    # memoized document, then its sub-quantum drift under a new epoch,
    # then a second such drift of the drifted document.
    catalog = WorkloadGenerator(seed=4).fixed_shape("chain", 4).catalog
    document = serialize.request_to_dict(
        OptimizationRequest(query=catalog, algorithm="auto")
    )
    steps = [
        ("repeat", 0, None),
        ("repeat", 0, None),
        ("epoch", 0, None),
        ("epoch", 1, None),
        ("repeat", 2, None),
    ]
    run_sequence(8, [document], steps)
