"""Tests for search-space counting: enumeration vs formulas vs Table I."""

import pytest

from repro import bitset, make_shape
from repro.analysis import formulas
from repro.enumeration.counting import (
    count_ccps,
    count_connected_subgraphs,
    count_ngt_subsets,
    enumerate_connected_subgraphs,
)

from .conftest import random_connected_graph
from .reference import connected_subsets_ref, count_ccps_ref, frozenset_to_bitset

#: Table I of the paper, verbatim.
TABLE_1 = {
    ("chain", 5): (15, 20, 84),
    ("chain", 10): (55, 165, 3962),
    ("chain", 15): (120, 560, 130798),
    ("chain", 20): (210, 1330, 4193840),
    ("star", 5): (20, 32, 130),
    ("star", 10): (521, 2304, 38342),
    ("star", 15): (16398, 114688, 9533170),
    ("star", 20): (524307, 4980736, 2323474358),
    ("cycle", 5): (21, 40, 140),
    ("cycle", 10): (91, 405, 11062),
    ("cycle", 15): (211, 1470, 523836),
    ("cycle", 20): (381, 3610, 22019294),
    ("clique", 5): (31, 90, 180),
    ("clique", 10): (1023, 28501, 57002),
    ("clique", 15): (32767, 7141686, 14283372),
    ("clique", 20): (1048575, 1742343625, 3484687250),
}


class TestTable1Formulas:
    @pytest.mark.parametrize("shape,n", sorted(TABLE_1))
    def test_formulas_reproduce_table1(self, shape, n):
        csg, ccp, ngt = TABLE_1[(shape, n)]
        row = formulas.table1_row(shape, n)
        assert row == {"csg": csg, "ccp": ccp, "ngt": ngt}

    @pytest.mark.parametrize("shape", ["chain", "star", "cycle", "clique"])
    @pytest.mark.parametrize("n", [5, 8])
    def test_enumeration_matches_formulas(self, shape, n):
        graph = make_shape(shape, n)
        assert count_connected_subgraphs(graph) == formulas.csg_count(shape, n)
        assert count_ccps(graph) == formulas.ccp_count(shape, n)
        assert count_ngt_subsets(graph) == formulas.ngt_count(shape, n)


class TestEnumerateConnectedSubgraphs:
    def test_exactly_once(self, rng):
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=8)
            emitted = list(enumerate_connected_subgraphs(graph))
            assert len(emitted) == len(set(emitted))

    def test_matches_reference(self, rng):
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=8)
            expected = {
                frozenset_to_bitset(s)
                for s in connected_subsets_ref(graph.n_vertices, graph.edges)
            }
            assert set(enumerate_connected_subgraphs(graph)) == expected

    def test_all_emitted_are_connected(self, rng):
        for _ in range(20):
            graph = random_connected_graph(rng, max_vertices=8)
            for s in enumerate_connected_subgraphs(graph):
                assert graph.is_connected(s)

    def test_singleton_exclusion(self):
        graph = make_shape("chain", 4)
        without = list(
            enumerate_connected_subgraphs(graph, include_singletons=False)
        )
        assert all(bitset.popcount(s) >= 2 for s in without)
        with_singletons = list(enumerate_connected_subgraphs(graph))
        assert len(with_singletons) == len(without) + 4

    def test_subsets_before_supersets_within_seed_group(self, rng):
        """The DPccp order property: within a min-vertex group, every csg
        is emitted after all its connected subsets in the same group."""
        for _ in range(25):
            graph = random_connected_graph(rng, max_vertices=8)
            position = {}
            for index, s in enumerate(enumerate_connected_subgraphs(graph)):
                position[s] = index
            for s, pos in position.items():
                low = s & -s
                for t, t_pos in position.items():
                    if t != s and t & ~s == 0 and (t & -t) == low:
                        assert t_pos < pos, (graph, s, t)


class TestCountCcps:
    @pytest.mark.parametrize("shape", ["chain", "star", "cycle", "clique"])
    def test_matches_generate_and_test_on_shapes(self, shape):
        graph = make_shape(shape, 7)
        assert count_ccps(graph) == count_ccps_ref(graph.n_vertices, graph.edges)

    def test_matches_generate_and_test_on_random_graphs(self, rng):
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=8)
            assert count_ccps(graph) == count_ccps_ref(
                graph.n_vertices, graph.edges
            ), graph


class TestCountIdentities:
    def test_ngt_identity(self, rng):
        # #ngt = sum over csgs (|S|>=2) of 2^|S|-2, by definition.
        for _ in range(15):
            graph = random_connected_graph(rng, max_vertices=7)
            expected = sum(
                (1 << bitset.popcount(s)) - 2
                for s in enumerate_connected_subgraphs(graph)
                if bitset.popcount(s) >= 2
            )
            assert count_ngt_subsets(graph) == expected

    def test_ccp_at_least_csg_minus_n(self, rng):
        # Every multi-vertex csg has at least one ccp.
        for _ in range(15):
            graph = random_connected_graph(rng, max_vertices=7)
            n_csg = count_connected_subgraphs(graph)
            assert count_ccps(graph) >= n_csg - graph.n_vertices
