"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import (
    Catalog,
    QueryGraph,
    Relation,
    chain_graph,
    star_graph,
    cycle_graph,
    clique_graph,
    grid_graph,
    random_acyclic_graph,
    random_cyclic_graph,
    attach_random_statistics,
    uniform_statistics,
)
from repro.enumeration.base import canonical_pair


def canonical_ccps(strategy_factory, graph, vertex_set=None):
    """Sorted canonical ccp list for one strategy on one set."""
    if vertex_set is None:
        vertex_set = graph.all_vertices
    strategy = strategy_factory(graph)
    return sorted(
        canonical_pair(left, right)
        for left, right in strategy.partitions(vertex_set)
    )


def pin_dpconv_kernel(monkeypatch, present: bool) -> None:
    """Pin whether ``auto`` sees a loadable C dpconv kernel.

    Only the choice rule is pinned: engines still run whichever dpconv
    rung this host has, which returns the same exact plan either way.
    Like the real resolver, only exactly ``CoutCostModel`` (or the
    default) resolves.
    """
    from repro.cost.cout import CoutCostModel
    from repro.optimizer import api

    def c_rung_resolves(cost_model, n):
        return present and (
            cost_model is None or type(cost_model) is CoutCostModel
        )

    monkeypatch.setattr(api, "_c_rung_resolves", c_rung_resolves)


def chain3_catalog(scale: float = 1.0) -> Catalog:
    """A 3-relation chain whose cardinalities are multiplied by ``scale``.

    ``scale=1 + 1e-9`` is a drift below the signature's rounding
    quantum: only ``stats_epoch`` can tell the two catalogs apart.
    """
    graph = QueryGraph(3, [(0, 1), (1, 2)])
    return Catalog(
        graph,
        [
            Relation("R0", 100.0 * scale),
            Relation("R1", 2000.0 * scale),
            Relation("R2", 50.0 * scale),
        ],
        {(0, 1): 0.1, (1, 2): 0.05},
    )


def relabelled_catalog(catalog: Catalog, permutation) -> Catalog:
    """The same statted query under a different vertex numbering."""
    graph = catalog.graph.relabelled(permutation)
    relations = [None] * graph.n_vertices
    for vertex in range(graph.n_vertices):
        relations[permutation[vertex]] = catalog.relations[vertex]
    selectivities = {
        (permutation[u], permutation[v]): catalog.selectivity(u, v)
        for (u, v) in catalog.graph.edges
    }
    return Catalog(graph, relations, selectivities)


def random_connected_graph(rng: random.Random, max_vertices: int = 9) -> QueryGraph:
    """Sample a random connected graph (tree or cyclic) for fuzz tests."""
    n = rng.randint(2, max_vertices)
    if n < 3 or rng.random() < 0.45:
        return random_acyclic_graph(n, rng=rng)
    m = rng.randint(n, n * (n - 1) // 2)
    return random_cyclic_graph(n, m, rng=rng)


@pytest.fixture
def rng():
    """Deterministic RNG for fuzz-style tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture(params=["chain", "star", "cycle", "clique", "grid"])
def small_shape_graph(request):
    """One graph of every fixed shape, n in the 5-6 range."""
    builders = {
        "chain": lambda: chain_graph(6),
        "star": lambda: star_graph(6),
        "cycle": lambda: cycle_graph(6),
        "clique": lambda: clique_graph(5),
        "grid": lambda: grid_graph(2, 3),
    }
    return builders[request.param]()


@pytest.fixture
def chain5():
    return chain_graph(5)


@pytest.fixture
def cycle4():
    return cycle_graph(4)


@pytest.fixture
def clique4():
    return clique_graph(4)


@pytest.fixture
def chain5_catalog(chain5):
    return attach_random_statistics(chain5, seed=42)


@pytest.fixture
def uniform_chain5(chain5):
    return uniform_statistics(chain5)
