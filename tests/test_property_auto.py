"""Property test: ``auto`` names one of two budget-capable engines.

:func:`repro.optimizer.api.choose_algorithm` answers one question: is the
request's #ccp above the break-even count for its ``n``, where C top-down
stops being faster than C dpconv?  Hypothesis draws graphs of 1 to 16
relations, connected or disconnected with cross products, and varies the
cost model, pruning, the cross-product flag and whether a C kernel is
pinned as loaded.  The answer must be ``"dpconv"`` or
``"tdmincutbranch"``, the named engine must honour cooperative budgets,
the library's ``auto`` and the service's signature must name the same
engine, and ``"dpconv"`` must come back exactly when the request is
eligible and its count, checked here by the python counter capped at
the break-even count, passes that count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OptimizationRequest, make_optimizer, uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.enumeration.counting import count_ccps
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import DPCONV_BREAK_EVEN_CCPS, choose_algorithm
from repro.service.core import service_signature

from .conftest import pin_dpconv_kernel

COST_MODELS = (None, CoutCostModel(), PhysicalCostModel())


@st.composite
def requests(draw):
    """A request over a random graph; a disconnected one always allows
    cross products, since without them it has no plan at all."""
    n = draw(st.integers(1, 16))
    connected = draw(st.booleans())
    edges = set()
    for v in range(1, n):
        if connected or draw(st.booleans()):
            edges.add((draw(st.integers(0, v - 1)), v))
    for _ in range(draw(st.integers(0, n * (n - 1) // 2)) if n > 1 else 0):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        if u != v:
            edges.add((u, v))
    graph = QueryGraph(n, sorted(edges))
    cross = draw(st.booleans()) or not graph.is_connected(graph.all_vertices)
    return OptimizationRequest(
        query=uniform_statistics(graph),
        algorithm="auto",
        cost_model=draw(st.sampled_from(COST_MODELS)),
        enable_pruning=draw(st.booleans()),
        allow_cross_products=cross,
    )


@settings(max_examples=200, deadline=None)
@given(request=requests(), kernel=st.booleans())
def test_auto_names_dpconv_or_topdown(request, kernel):
    catalog = request.resolved_catalog()
    graph = catalog.graph
    n = graph.n_vertices
    with pytest.MonkeyPatch.context() as patch:
        pin_dpconv_kernel(patch, kernel)
        choice = choose_algorithm(
            catalog,
            enable_pruning=request.enable_pruning,
            cost_model=request.cost_model,
        )
        served = service_signature(request, catalog)[1]
    assert choice in ("dpconv", "tdmincutbranch")
    assert served == choice
    engine = make_optimizer(
        choice,
        catalog,
        cost_model=request.cost_model,
        enable_pruning=request.enable_pruning,
    )
    assert engine.supports_budget

    eligible = (
        kernel
        and not request.enable_pruning
        and (request.cost_model is None or type(request.cost_model) is CoutCostModel)
        and n in DPCONV_BREAK_EVEN_CCPS
        and graph.is_connected(graph.all_vertices)
    )
    faster = eligible and (
        count_ccps(graph, DPCONV_BREAK_EVEN_CCPS[n]) > DPCONV_BREAK_EVEN_CCPS[n]
    )
    assert (choice == "dpconv") == faster


@pytest.mark.parametrize("cost_model", (None, CoutCostModel()))
def test_auto_names_topdown_for_a_two_relation_query(cost_model):
    """A connected pair has one ccp, and top-down beats dpconv there.

    The break-even entry for ``n = 2`` once sat below that one ccp, so
    every ``C_out`` 2-relation ``auto`` request went to dpconv (0.026 ms
    against top-down's 0.021 ms on chain-2).
    """
    request = OptimizationRequest(
        query=uniform_statistics(QueryGraph(2, [(0, 1)])),
        algorithm="auto",
        cost_model=cost_model,
    )
    catalog = request.resolved_catalog()
    with pytest.MonkeyPatch.context() as patch:
        pin_dpconv_kernel(patch, True)
        assert choose_algorithm(catalog, cost_model=cost_model) == "tdmincutbranch"
        assert service_signature(request, catalog)[1] == "tdmincutbranch"
