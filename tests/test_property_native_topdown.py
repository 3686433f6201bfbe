"""Property tests: the C top-down kernel against the python kernel.

Hypothesis draws connected graphs of 2 to 20 relations and statistics
built to break float arithmetic: ties everywhere, denormals whose
products underflow to 0, 1e300 cardinalities whose products overflow to
inf (and then meet 0 as NaN), and uniform statistics on long chains.
Whatever the python kernel makes of such input — an optimum, an inf or
NaN cost, or an error — the C kernel must make exactly the same: the
same plan tree (compared as JSON, so NaN and -0.0 compare by spelling),
cost, counters and memo.  On power-of-two statistics, where every
product is exact whatever its association, the top-down optimum for
n <= 15 must also equal dpconv's bit for bit.

The same holds under :class:`~repro.cost.physical.PhysicalCostModel`
with random parameters and a random subset and order of its three
implementations: the implementation names in the plan and the memo
must match too, including ties between implementations and the
``log2`` products of sort-merge on 1e300 inputs, which overflow.

The C kernel hands its plan out itself (``td_plan``) and defers the
memo; under both cost models that plan -- or its "no plan" error --
must equal what ``extract_plan`` makes of the memo afterwards.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import Catalog, Relation
from repro.cost.physical import (
    HashJoin,
    NestedLoopJoin,
    PhysicalCostModel,
    SortMergeJoin,
)
from repro.enumeration.mincutbranch import MinCutBranch
from repro.graph.query_graph import QueryGraph
from repro.optimizer._native_build import load_c_kernel
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.serialize import plan_to_dict

pytestmark = pytest.mark.skipif(
    load_c_kernel(build=True) is None, reason="no C kernel on this host"
)

#: Cardinalities and selectivities at the edges of float64.
ADVERSARIAL_CARDS = [
    1.0, 2.0, 3.0, 1000.0, 1e300, 1.7976931348623157e308, 5e-324,
    2.2250738585072014e-308, 1e-300, 0.1,
]
ADVERSARIAL_SELS = [1.0, 0.5, 0.1, 1e-3, 1e-300, 5e-324, 2.2250738585072014e-308]


@st.composite
def connected_graphs(draw, max_vertices=20):
    """A random spanning tree plus extra edges.  Up to 10 relations any
    density is drawn; beyond that trees are path-like (each vertex hangs
    off one of the two before it) with few extra edges, so the python
    kernel stays fast."""
    n = draw(st.integers(2, max_vertices))
    dense = n <= 10
    edges = set()
    for v in range(1, n):
        low = 0 if dense else max(0, v - 2)
        edges.add((draw(st.integers(low, v - 1)), v))
    for _ in range(draw(st.integers(0, n * (n - 1) // 2 if dense else 3))):
        u = draw(st.integers(0, n - 1))
        v = u + draw(st.integers(1, n - 1 if dense else 3))
        if v < n:
            edges.add((u, v))
    return QueryGraph(n, sorted(edges))


@st.composite
def catalogs(draw, graphs=connected_graphs()):
    graph = draw(graphs)
    mode = draw(st.sampled_from(["uniform", "adversarial", "random"]))
    if mode == "uniform":
        card = draw(st.sampled_from(ADVERSARIAL_CARDS))
        sel = draw(st.sampled_from(ADVERSARIAL_SELS))
        cards = [card] * graph.n_vertices
        sels = [sel] * graph.n_edges
    elif mode == "adversarial":
        cards = draw(st.lists(
            st.sampled_from(ADVERSARIAL_CARDS),
            min_size=graph.n_vertices, max_size=graph.n_vertices,
        ))
        sels = draw(st.lists(
            st.sampled_from(ADVERSARIAL_SELS),
            min_size=graph.n_edges, max_size=graph.n_edges,
        ))
    else:
        cards = draw(st.lists(
            st.floats(1.0, 1e12), min_size=graph.n_vertices, max_size=graph.n_vertices
        ))
        sels = draw(st.lists(
            st.floats(1e-12, 1.0), min_size=graph.n_edges, max_size=graph.n_edges
        ))
    return _catalog(graph, cards, sels)


@st.composite
def power_of_two_catalogs(draw):
    """Exact statistics for n <= 15: every cardinality product is a power
    of two far from overflow, so association cannot change it."""
    graph = draw(connected_graphs(max_vertices=15))
    cards = [2.0 ** draw(st.integers(0, 20)) for _ in range(graph.n_vertices)]
    sels = [2.0 ** -draw(st.integers(0, 20)) for _ in range(graph.n_edges)]
    return _catalog(graph, cards, sels)


#: Parameters drawn for the physical model: ties (equal factors), zero,
#: and a few magnitudes; ``buffer_pages`` must stay > 0.
PARAMETERS = [0.0, 0.5, 1.0, 2.0, 3.0, 100.0, 1e-300, 1e300]


@st.composite
def physical_models(draw):
    """A random subset and order of the three implementations, each with
    random valid parameters, and a random output weight."""
    parameter = st.one_of(st.sampled_from(PARAMETERS), st.floats(0.0, 1e6))
    makers = {
        "nestedloop": lambda: NestedLoopJoin(
            buffer_pages=draw(parameter.filter(lambda value: value > 0))
        ),
        "hash": lambda: HashJoin(
            build_factor=draw(parameter), probe_factor=draw(parameter)
        ),
        "sortmerge": SortMergeJoin,
    }
    kinds = draw(st.permutations(sorted(makers)))
    chosen = kinds[: draw(st.integers(1, len(kinds)))]
    return PhysicalCostModel(
        [makers[kind]() for kind in chosen], output_weight=draw(parameter)
    )


def _catalog(graph, cards, sels):
    relations = [Relation(name=f"R{v}", cardinality=c) for v, c in enumerate(cards)]
    return Catalog(graph, relations, dict(zip(graph.edges, sels)))


def _outcome(catalog, backend, cost_model=None):
    optimizer = TopDownPlanGenerator(
        catalog, MinCutBranch, cost_model, native_backend=backend
    )
    try:
        plan = optimizer.optimize()
    except Exception as exc:  # both kernels must fail alike
        result = ("error", type(exc).__name__)
    else:
        result = ("plan", json.dumps(plan_to_dict(plan), sort_keys=True), repr(plan.cost))
    memo = json.dumps([
        (e.vertex_set, e.cardinality, e.cost, e.best_left, e.best_right,
         e.implementation, e.explored)
        for e in optimizer.builder.memo.entries()
    ])
    counters = (
        optimizer.partitioner.stats,
        optimizer.builder.cost_evaluations,
        optimizer.builder.estimator.estimations,
    )
    return optimizer.last_backend, result, memo, counters


class TestCAgainstPython:
    @settings(max_examples=120, deadline=None)
    @given(catalogs())
    def test_identical_on_adversarial_statistics(self, catalog):
        c_backend, *c_run = _outcome(catalog, "c")
        python_backend, *python_run = _outcome(catalog, "off")
        assert (c_backend, python_backend) == ("c", "python")
        assert c_run == python_run

    @settings(max_examples=120, deadline=None)
    @given(catalogs(graphs=connected_graphs(max_vertices=14)), physical_models())
    def test_identical_under_physical_models(self, catalog, model):
        c_backend, *c_run = _outcome(catalog, "c", model)
        python_backend, *python_run = _outcome(catalog, "off", model)
        assert (c_backend, python_backend) == ("c", "python")
        assert c_run == python_run

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 20),
        st.sampled_from(ADVERSARIAL_CARDS),
        st.sampled_from(ADVERSARIAL_SELS),
    )
    def test_identical_on_uniform_chains(self, n, card, sel):
        graph = QueryGraph(n, [(v, v + 1) for v in range(n - 1)])
        catalog = _catalog(graph, [card] * n, [sel] * (n - 1))
        assert _outcome(catalog, "c")[1:] == _outcome(catalog, "off")[1:]

    @settings(max_examples=60, deadline=None)
    @given(power_of_two_catalogs())
    def test_cost_equals_dpconv(self, catalog):
        topdown = TopDownPlanGenerator(catalog, MinCutBranch, native_backend="c")
        plan = topdown.optimize()
        conv = DPconvPlanGenerator(catalog)
        assert conv.optimize().cost == plan.cost
        assert conv.builder.cost_evaluations == topdown.builder.cost_evaluations
        plan.validate()


def _plan_or_error(extract):
    try:
        plan = extract()
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("plan", json.dumps(plan_to_dict(plan), sort_keys=True), repr(plan.cost))


def _handed_and_extracted(catalog, cost_model=None):
    optimizer = TopDownPlanGenerator(
        catalog, MinCutBranch, cost_model, native_backend="c"
    )
    handed = _plan_or_error(optimizer.optimize)
    assert optimizer.last_backend == "c"
    memo = optimizer.builder.memo
    before = len(memo)
    root = catalog.graph.all_vertices
    extracted = _plan_or_error(lambda: memo.extract_plan(root))
    assert len(memo) == before
    return handed, extracted


class TestHandedPlan:
    @settings(max_examples=120, deadline=None)
    @given(catalogs())
    def test_equals_the_extracted_plan(self, catalog):
        handed, extracted = _handed_and_extracted(catalog)
        assert handed == extracted

    @settings(max_examples=120, deadline=None)
    @given(catalogs(graphs=connected_graphs(max_vertices=14)), physical_models())
    def test_equals_the_extracted_plan_under_physical_models(self, catalog, model):
        handed, extracted = _handed_and_extracted(catalog, model)
        assert handed == extracted
