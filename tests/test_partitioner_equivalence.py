"""Cross-strategy equivalence: all partitioners emit exactly P_ccp_sym(S).

This is the central correctness property of the paper: MinCutBranch and
MinCutLazy must produce precisely the ccps of the naive definition, on
*every* connected subset the top-down driver can reach, for graphs of
every shape.  The reference implementation (tests/reference.py) is a
from-first-principles frozenset brute force, independent of the library's
bitset machinery.
"""

import pytest

from repro import (
    ConservativePartitioning,
    MinCutBranch,
    MinCutLazy,
    NaivePartitioning,
    bitset,
    make_shape,
)
from repro.enumeration.base import canonical_pair
from repro.enumeration.counting import enumerate_connected_subgraphs

from .conftest import canonical_ccps, random_connected_graph
from .reference import bitset_to_frozenset, ccps_for_set_ref, count_ccps_ref

STRATEGIES = [
    ("naive", NaivePartitioning),
    ("conservative", ConservativePartitioning),
    ("mincutbranch", MinCutBranch),
    ("mincutbranch_noopt", lambda g: MinCutBranch(g, use_optimizations=False)),
    ("mincutlazy", MinCutLazy),
    ("mincutlazy_norebuild", lambda g: MinCutLazy(g, use_reuse_test=False)),
]


@pytest.mark.parametrize("shape", ["chain", "star", "cycle", "clique"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("name,factory", STRATEGIES)
def test_fixed_shapes_match_reference(shape, n, name, factory):
    graph = make_shape(shape, n)

    def normalize(s1, s2):
        return tuple(sorted((s1, s2), key=max))

    actual = {
        normalize(bitset_to_frozenset(a), bitset_to_frozenset(b))
        for a, b in factory(graph).partitions(graph.all_vertices)
    }
    reference = {
        normalize(s1, s2)
        for s1, s2 in ccps_for_set_ref(frozenset(range(n)), n, graph.edges)
    }
    assert actual == reference


@pytest.mark.parametrize("name,factory", STRATEGIES)
def test_all_connected_subsets_random_graphs(name, factory, rng):
    """Every strategy agrees with naive on every reachable subset."""
    for _ in range(25):
        graph = random_connected_graph(rng, max_vertices=8)
        for vertex_set in enumerate_connected_subgraphs(graph):
            if bitset.popcount(vertex_set) < 2:
                continue
            assert canonical_ccps(factory, graph, vertex_set) == canonical_ccps(
                NaivePartitioning, graph, vertex_set
            ), (graph, bitset.format_set(vertex_set))


def test_union_of_per_set_ccps_has_expected_total(rng):
    """Summing |P_ccp_sym(S)| over all csgs equals the graph's #ccp."""
    for _ in range(10):
        graph = random_connected_graph(rng, max_vertices=7)
        total = 0
        for vertex_set in enumerate_connected_subgraphs(graph):
            if bitset.popcount(vertex_set) < 2:
                continue
            total += len(list(MinCutBranch(graph).partitions(vertex_set)))
        assert total == count_ccps_ref(graph.n_vertices, graph.edges)
