"""Unit tests for QueryGraph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryGraph, bitset
from repro.errors import DisconnectedGraphError, GraphError

from .reference import adjacency_map, is_connected_ref, bitset_to_frozenset


class TestConstruction:
    def test_basic(self):
        g = QueryGraph(3, [(0, 1), (1, 2)])
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.all_vertices == 0b111

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphError):
            QueryGraph(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            QueryGraph(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            QueryGraph(2, [(0, 2)])

    def test_deduplicates_parallel_edges(self):
        g = QueryGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_edges_normalized_sorted(self):
        g = QueryGraph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_single_vertex_graph(self):
        g = QueryGraph(1, [])
        assert g.is_connected(1)
        assert g.neighborhood(1) == 0


class TestAdjacency:
    def test_has_edge(self):
        g = QueryGraph(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_neighbors_of_vertex(self):
        g = QueryGraph(4, [(0, 1), (0, 2), (2, 3)])
        assert g.neighbors_of_vertex(0) == 0b0110
        assert g.neighbors_of_vertex(3) == 0b0100

    def test_neighborhood_definition(self):
        # N(S) per Def 2.3: neighbors outside S.
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.neighborhood(bitset.set_of(1, 2)) == bitset.set_of(0, 3)
        assert g.neighborhood(bitset.set_of(0)) == bitset.set_of(1)
        assert g.neighborhood(g.all_vertices) == 0

    def test_neighborhood_empty_set(self):
        g = QueryGraph(3, [(0, 1), (1, 2)])
        assert g.neighborhood(0) == 0

    def test_neighborhood_within(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.neighborhood_within(
            bitset.set_of(1), bitset.set_of(0, 1)
        ) == bitset.set_of(0)


class TestConnectivity:
    def test_connected_chain(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.is_connected(0b1111)
        assert g.is_connected(0b0110)
        assert not g.is_connected(0b1001)  # endpoints only

    def test_empty_set_not_connected(self):
        g = QueryGraph(2, [(0, 1)])
        assert not g.is_connected(0)

    def test_singleton_connected(self):
        g = QueryGraph(2, [(0, 1)])
        assert g.is_connected(0b10)

    def test_connected_component(self):
        g = QueryGraph(5, [(0, 1), (2, 3)])
        assert g.connected_component(1, 0b11011) == 0b00011
        assert g.connected_component(0b100, 0b11100) == 0b01100

    def test_connected_components_partition(self):
        g = QueryGraph(6, [(0, 1), (2, 3), (3, 4)])
        comps = g.connected_components(g.all_vertices)
        assert sorted(comps) == sorted([0b000011, 0b011100, 0b100000])
        combined = 0
        for c in comps:
            assert combined & c == 0
            combined |= c
        assert combined == g.all_vertices

    def test_are_connected_sets(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.are_connected_sets(0b0011, 0b0100)
        assert not g.are_connected_sets(0b0001, 0b1000)

    def test_connectivity_matches_reference(self, rng):
        for _ in range(50):
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = QueryGraph(n, edges)
            adj = adjacency_map(n, edges)
            for vertex_set in range(1, 1 << n):
                expected = is_connected_ref(bitset_to_frozenset(vertex_set), adj)
                assert g.is_connected(vertex_set) == expected

    def test_require_connected(self):
        g = QueryGraph(3, [(0, 1)])
        g.require_connected(0b011)
        with pytest.raises(DisconnectedGraphError):
            g.require_connected(0b101)


@st.composite
def graphs_and_sets(draw):
    """A random graph (often disconnected, up to 70 vertices) and a vertex
    set of it: empty, a singleton, or any subset."""
    n = draw(st.integers(1, 70))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)] if n <= 12 else None
    if pairs is not None:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        edges = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            )
        )
    full = (1 << n) - 1
    vertex_set = draw(
        st.one_of(
            st.just(0),
            st.integers(0, n - 1).map(lambda v: 1 << v),
            st.just(full),
            st.integers(0, full),
        )
    )
    return QueryGraph(n, edges), vertex_set


class TestConnectivityAgainstReference:
    """``is_connected`` and ``connected_component`` against the reference
    BFS on random graphs, including empty, singleton and disconnected sets."""

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_sets())
    def test_is_connected(self, case):
        graph, vertex_set = case
        adj = adjacency_map(graph.n_vertices, graph.edges)
        expected = is_connected_ref(bitset_to_frozenset(vertex_set), adj)
        assert graph.is_connected(vertex_set) == expected

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_sets(), st.data())
    def test_connected_component(self, case, data):
        graph, universe = case
        if not universe:
            return
        seed = 1 << data.draw(st.sampled_from(bitset.to_indices(universe)))
        component = graph.connected_component(seed, universe)
        adj = adjacency_map(graph.n_vertices, graph.edges)
        members = bitset_to_frozenset(component)
        # The component of the seed is the one connected part of the
        # universe that holds the seed and has no neighbor left in it.
        assert seed & component and component & ~universe == 0
        assert is_connected_ref(members, adj)
        outside = bitset_to_frozenset(universe & ~component)
        assert not any(adj[v] & outside for v in members)


class TestInducedEdges:
    def test_induced_edges(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.induced_edges(0b0111) == [(0, 1), (1, 2)]
        assert g.induced_edges(0b1001) == []

    def test_edges_between(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges_between(0b0011, 0b1100) == [(1, 2)]
        assert g.edges_between(0b0001, 0b1000) == []


class TestClassification:
    def test_shape_names(self):
        from repro import chain_graph, star_graph, cycle_graph, clique_graph

        assert chain_graph(5).shape_name() == "chain"
        assert star_graph(5).shape_name() == "star"
        assert cycle_graph(5).shape_name() == "cycle"
        assert clique_graph(5).shape_name() == "clique"
        assert QueryGraph(1, []).shape_name() == "single"
        assert QueryGraph(4, [(0, 1), (2, 3)]).shape_name() == "disconnected"

    def test_tree_shape(self):
        # A "T" shape: not chain, not star.
        g = QueryGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert g.shape_name() == "tree"

    def test_cyclic_shape(self):
        g = QueryGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert g.shape_name() == "cyclic"

    def test_is_acyclic(self):
        from repro import chain_graph, cycle_graph

        assert chain_graph(5).is_acyclic()
        assert not cycle_graph(5).is_acyclic()

    def test_degree(self):
        from repro import star_graph

        g = star_graph(5)
        assert g.degree(0) == 4
        assert g.degree(1) == 1
        assert g.degree_sequence() == [1, 1, 1, 1, 4]


class TestMisc:
    def test_equality_and_hash(self):
        a = QueryGraph(3, [(0, 1), (1, 2)])
        b = QueryGraph(3, [(1, 2), (0, 1)])
        c = QueryGraph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_relabelled_isomorphic(self):
        g = QueryGraph(3, [(0, 1), (1, 2)])
        h = g.relabelled([2, 1, 0])
        assert h.edges == ((0, 1), (1, 2))

    def test_relabelled_rejects_non_bijection(self):
        g = QueryGraph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.relabelled([0, 0, 1])

    def test_repr_roundtrip_info(self):
        g = QueryGraph(2, [(0, 1)])
        assert "n_vertices=2" in repr(g)
