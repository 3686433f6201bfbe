"""Property: the in-process key memo never serves another catalog's key.

An ``optimize()`` call without a wire digest memoizes its resolved cache
key under the exact fingerprint of its catalog (no rounding, no
labeling) plus the signature's options, and reuses it only for the very
query object it was resolved for.  Random sequences repeat a catalog,
copy it, relabel it, drift its statistics below the rounding quantum
(as a new catalog or in place on the same object), and switch
``stats_epoch`` or the algorithm.  A key may be reused (the
``canonicalize`` span says ``memoized``) only when the same object was
served before with the same raw statistics and options, and every reply
must carry the signature a fresh resolution gives, cost what a fresh
run costs, and be a valid plan over this catalog.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Catalog,
    OptimizationRequest,
    OptimizerService,
    Relation,
    WorkloadGenerator,
)
from repro.cost.cout import CoutCostModel
from repro.optimizer.api import optimize_request
from repro.plan.validation import validate_plan
from repro.service.core import service_signature

from .conftest import chain3_catalog, relabelled_catalog

SHAPES = ("chain", "cycle", "star", "clique")
ALGORITHMS = ("auto", "tdmincutbranch", "dpccp")
#: A drift below the signature's 4-significant-digit rounding quantum.
SUB_QUANTUM = 1.0 + 1e-9


@st.composite
def catalogs(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 1000))
    return WorkloadGenerator(seed=seed).fixed_shape(shape, n).catalog


#: ``(op, pool index, permutation seed, algorithm, stats_epoch)``.
operations = st.tuples(
    st.sampled_from(("repeat", "copy", "drift", "drift_in_place", "relabel")),
    st.integers(0, 63),
    st.integers(0, 2**16),
    st.sampled_from(ALGORITHMS),
    st.integers(0, 1),
)


def drifted_relations(catalog):
    return tuple(
        Relation(r.name, r.cardinality * SUB_QUANTUM) for r in catalog.relations
    )


def raw_state(catalog):
    """The test's own exact model of a catalog's content (``repr`` keeps
    every digit and tells ``1`` from ``1.0``)."""
    return repr((
        catalog.graph,
        [(r.name, r.cardinality) for r in catalog.relations],
        [(edge, catalog.selectivity(*edge)) for edge in catalog.graph.edges],
    ))


def memoized(service, result):
    trace = service.traces.get(result.trace_id)
    return trace.find("canonicalize").attributes["memoized"]


def pick(pool, op, index, seed):
    catalog = pool[index % len(pool)]
    if op == "copy":
        catalog = Catalog(
            catalog.graph,
            catalog.relations,
            {edge: catalog.selectivity(*edge) for edge in catalog.graph.edges},
        )
    elif op == "drift":
        catalog = Catalog(
            catalog.graph,
            drifted_relations(catalog),
            {edge: catalog.selectivity(*edge) for edge in catalog.graph.edges},
        )
    elif op == "drift_in_place":
        # No public mutator exists, but the slot can still be rebound.
        catalog.relations = drifted_relations(catalog)
    elif op == "relabel":
        permutation = list(range(catalog.graph.n_vertices))
        random.Random(seed).shuffle(permutation)
        catalog = relabelled_catalog(catalog, permutation)
    if op in ("copy", "drift", "relabel"):
        pool.append(catalog)
    return catalog


def run_sequence(capacity, pool, steps):
    pool = list(pool)
    service = OptimizerService(cache_capacity=capacity)
    served = []  # (query object, (raw state, algorithm, epoch)) per reply
    for op, index, seed, algorithm, epoch in steps:
        catalog = pick(pool, op, index, seed)
        state = (raw_state(catalog), algorithm, epoch)
        result = service.optimize(
            catalog, algorithm=algorithm, stats_epoch=epoch
        )
        if memoized(service, result):
            assert any(
                query is catalog and seen == state for query, seen in served
            ), f"{op}: a key resolved for other statistics or options"
        served.append((catalog, state))

        request = OptimizationRequest(
            query=catalog, algorithm=algorithm, stats_epoch=epoch
        )
        assert result.signature == service_signature(request, catalog)[2], op
        fresh = optimize_request(request)
        assert math.isclose(result.cost, fresh.cost, rel_tol=1e-6), op
        assert validate_plan(result.plan, catalog, CoutCostModel()) == [], op
    # In-process traffic never touches the door's digest memo.
    assert service.stats_snapshot()["digest_memo"]["size"] == 0


@settings(max_examples=80, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 8]),
    pool=st.lists(catalogs(), min_size=1, max_size=3),
    steps=st.lists(operations, min_size=1, max_size=12),
)
def test_memo_never_serves_a_key_resolved_for_other_statistics(
    capacity, pool, steps
):
    run_sequence(capacity, pool, steps)


def test_repeats_reuse_the_key_until_statistics_or_epoch_change():
    service = OptimizerService()
    catalog = chain3_catalog()

    def served_memoized(**overrides):
        return memoized(service, service.optimize(catalog, **overrides))

    assert not served_memoized()
    assert served_memoized()
    assert not served_memoized(stats_epoch=1)
    assert served_memoized(stats_epoch=1)
    catalog.relations = drifted_relations(catalog)
    assert not served_memoized(stats_epoch=1)
    assert served_memoized(stats_epoch=1)
    # An equal-valued but distinct catalog resolves its own key.
    assert not memoized(service, service.optimize(chain3_catalog()))
