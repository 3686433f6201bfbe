"""Property tests: admission's capped #ccp count against the oracles.

Admission control asks one question of a request, "is its #ccp above
the budget?", and answers it with the Table-I closed form for the four
fixed shapes or an exact csg-cmp count that stops once it passes the
budget: in C where the kernel is built
(:func:`repro.optimizer.native.count_ccps_c`), else in python
(:func:`repro.enumeration.counting.count_ccps`).

Hypothesis draws graphs of 1 to 16 relations, connected and
disconnected, and caps at the exact count minus one, at it, plus one and
at random.  Both counts must equal the generate-and-test
:func:`tests.reference.count_ccps_ref` whenever that is at most the cap,
and report ``cap + 1`` otherwise; admission's over/under decision must
equal the one the exact count makes, on both paths, and a cross-product
request is priced on its stitched graph.  Two graphs whose
old interpolated estimate sat under a budget of 5 000 that they exceed
many times over are pinned end to end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OptimizerService, WorkloadGenerator, grid_graph, uniform_statistics
from repro.catalog.crossproduct import connect_components
from repro.enumeration.counting import count_ccps
from repro.graph.query_graph import QueryGraph
from repro.optimizer._native_build import load_c_kernel
from repro.optimizer import native
from repro.optimizer.native import count_ccps_c
from repro.service import ResilienceConfig, estimate_ccps

from .reference import count_ccps_ref

KERNEL = load_c_kernel(build=True) is not None
PATHS = ["c", "python"] if KERNEL else ["python"]


@st.composite
def graphs(draw, max_vertices=16):
    """A random forest, spanning or not, plus extra edges.  Up to 10
    relations any density is drawn; beyond that trees are path-like
    (each vertex hangs off one of the two before it) with few extra
    edges, so the generate-and-test reference stays affordable."""
    n = draw(st.integers(1, max_vertices))
    connected = draw(st.booleans())
    dense = n <= 10
    edges = set()
    for v in range(1, n):
        if connected or draw(st.booleans()):
            low = 0 if dense else max(0, v - 2)
            edges.add((draw(st.integers(low, v - 1)), v))
    extra = n * (n - 1) // 2 if dense else 3
    for _ in range(draw(st.integers(0, extra)) if n > 1 else 0):
        u = draw(st.integers(0, n - 1))
        v = u + draw(st.integers(1, n - 1 if dense else 3))
        if v < n:
            edges.add((u, v))
    return QueryGraph(n, sorted(edges))


def _caps(exact, data):
    """The caps around ``exact``, and one at random."""
    drawn = data.draw(st.integers(0, 2 * exact + 1), label="cap")
    return sorted({cap for cap in (exact - 1, exact, exact + 1, drawn) if cap >= 0})


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_capped_count_matches_reference(graph, data):
    exact = count_ccps_ref(graph.n_vertices, graph.edges)
    assert count_ccps(graph) == exact
    if KERNEL:
        assert count_ccps_c(graph) == exact
    for cap in _caps(exact, data):
        expected = exact if exact <= cap else cap + 1
        assert count_ccps(graph, cap) == expected, cap
        if KERNEL:
            assert count_ccps_c(graph, cap) == expected, cap


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=80, deadline=None)
@given(graph=graphs(), cross=st.booleans(), data=st.data())
def test_admission_decision_matches_exact_count(path, graph, cross, data):
    if cross:
        # A cross-product request is priced on the graph its engine
        # searches: the declared edges plus one stitch per component gap.
        graph = connect_components(uniform_statistics(graph)).graph
    exact = count_ccps(graph)
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setattr(native, "count_ccps_c", lambda graph, cap: None)
        for budget in _caps(exact, data):
            estimate = estimate_ccps(graph, budget)
            assert (estimate.ccps > budget) == (exact > budget), budget
            if estimate.ccps <= budget:
                assert estimate.ccps == exact


def test_count_stops_at_the_cap_on_a_large_graph():
    # clique-20 holds ~1.7e9 ccps: only a count that stops can answer.
    graph = QueryGraph(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
    assert count_ccps(graph, 1_000) == 1_001
    if KERNEL:
        assert count_ccps_c(graph, 1_000) == 1_001


class TestPinnedOverBudget:
    """Under a budget of 5 000 the interpolated estimate admitted both
    (3 784 and 4 231 predicted); they hold 224 305 and 76 245 ccps."""

    BUDGET = 5_000

    def _serve(self, catalog):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=self.BUDGET)
        )
        return service.optimize(catalog, algorithm="tdmincutbranch")

    def test_grid_4x4(self):
        catalog = uniform_statistics(
            grid_graph(4, 4), cardinality=4.0, selectivity=0.25
        )
        result = self._serve(catalog)
        assert result.ok
        assert result.details["degrade_reason"] == "over_budget"
        assert result.details["admission_estimate"] == self.BUDGET + 1
        assert result.details["admission_method"] == "counted"

    def test_random_cyclic_14_23(self):
        catalog = WorkloadGenerator(seed=11).random_cyclic(14, 23).catalog
        assert count_ccps(catalog.graph) == 76_245
        result = self._serve(catalog)
        assert result.ok
        assert result.details["degrade_reason"] == "over_budget"
        assert result.details["admission_estimate"] == self.BUDGET + 1
