"""Unit tests for DPccp and its csg/cmp enumerators."""

import pytest

from repro import DPccp, bitset, chain_graph, clique_graph, make_shape, uniform_statistics
from repro.analysis import formulas
from repro.errors import OptimizationError
from repro.optimizer.dpccp import (
    enumerate_cmp,
    enumerate_csg,
    enumerate_csg_cmp_pairs,
)

from .conftest import random_connected_graph
from .reference import (
    bitset_to_frozenset,
    ccps_for_set_ref,
    connected_subsets_ref,
    count_ccps_ref,
    frozenset_to_bitset,
)


class TestEnumerateCsg:
    def test_emits_each_csg_once(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, max_vertices=8)
            emitted = list(enumerate_csg(g))
            assert len(emitted) == len(set(emitted))
            expected = {
                frozenset_to_bitset(s)
                for s in connected_subsets_ref(g.n_vertices, g.edges)
            }
            assert set(emitted) == expected

    @pytest.mark.parametrize("shape", ["chain", "star", "cycle", "clique"])
    def test_count_matches_formula(self, shape):
        g = make_shape(shape, 7)
        assert len(list(enumerate_csg(g))) == formulas.csg_count(shape, 7)


class TestEnumerateCmp:
    def test_complement_properties(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, max_vertices=7)
            for csg in enumerate_csg(g):
                for cmp_set in enumerate_cmp(g, csg):
                    assert csg & cmp_set == 0
                    assert g.is_connected(cmp_set)
                    assert g.are_connected_sets(csg, cmp_set)
                    # Symmetry convention: min(S2) > min(S1).
                    assert bitset.lowest_index(cmp_set) > bitset.lowest_index(csg)

    def test_pairs_cover_p_ccp_sym(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, max_vertices=7)
            pairs = list(enumerate_csg_cmp_pairs(g))
            assert len(pairs) == len(set(pairs))
            # Group by union set and compare against the reference.
            by_union = {}
            for s1, s2 in pairs:
                by_union.setdefault(s1 | s2, set()).add(
                    tuple(
                        sorted(
                            (bitset_to_frozenset(s1), bitset_to_frozenset(s2)),
                            key=max,
                        )
                    )
                )
            for union_set, got in by_union.items():
                expected = {
                    tuple(sorted(pair, key=max))
                    for pair in ccps_for_set_ref(
                        bitset_to_frozenset(union_set), g.n_vertices, g.edges
                    )
                }
                assert got == expected

    def test_pair_count_is_ccp_count(self):
        for shape in ("chain", "star", "cycle", "clique"):
            g = make_shape(shape, 7)
            assert len(list(enumerate_csg_cmp_pairs(g))) == count_ccps_ref(
                g.n_vertices, g.edges
            )


class TestDPOrderProperty:
    def test_operands_ready_when_pair_processed(self, rng):
        """The DP-validity invariant: when (S1, S2) is emitted, every pair
        for S1 and for S2 has already been emitted."""
        for _ in range(25):
            g = random_connected_graph(rng, max_vertices=8)
            pairs_seen_for = {}
            pairs_expected_for = {}
            order = list(enumerate_csg_cmp_pairs(g))
            for s1, s2 in order:
                pairs_expected_for.setdefault(s1 | s2, 0)
                pairs_expected_for[s1 | s2] += 1
            for s1, s2 in order:
                for operand in (s1, s2):
                    if bitset.popcount(operand) > 1:
                        assert pairs_seen_for.get(operand, 0) == \
                            pairs_expected_for[operand], (g, s1, s2)
                union = s1 | s2
                pairs_seen_for[union] = pairs_seen_for.get(union, 0) + 1


class TestDPccpDriver:
    def test_processes_exactly_ccp_pairs(self):
        g = clique_graph(7)
        optimizer = DPccp(uniform_statistics(g))
        optimizer.optimize()
        assert optimizer.ccps_processed == formulas.ccp_count("clique", 7)

    def test_rejects_disconnected(self):
        from repro import QueryGraph

        g = QueryGraph(4, [(0, 1), (2, 3)])
        optimizer = DPccp(uniform_statistics(g))
        with pytest.raises(OptimizationError):
            optimizer.optimize()

    def test_two_relation_query(self):
        g = chain_graph(2)
        plan = DPccp(uniform_statistics(g)).optimize()
        plan.validate()
        assert plan.n_joins() == 1

    def test_single_relation_query(self):
        g = chain_graph(1)
        plan = DPccp(uniform_statistics(g)).optimize()
        assert plan.is_leaf

    def test_cost_evaluations_once_per_ccp_symmetric(self):
        # C_out is symmetric, so the mirrored orientation is skipped.
        g = chain_graph(6)
        optimizer = DPccp(uniform_statistics(g))
        optimizer.optimize()
        assert optimizer.builder.cost_evaluations == optimizer.ccps_processed

    def test_cost_evaluations_twice_ccps_asymmetric(self):
        from repro.cost.physical import PhysicalCostModel

        g = chain_graph(6)
        optimizer = DPccp(uniform_statistics(g), cost_model=PhysicalCostModel())
        optimizer.optimize()
        assert optimizer.builder.cost_evaluations == 2 * optimizer.ccps_processed

    def test_cardinality_estimated_once_per_csg(self):
        # The "Fortunate Observation": estimations == #csg with |S| >= 2.
        from repro.enumeration.counting import count_connected_subgraphs

        g = chain_graph(7)
        optimizer = DPccp(uniform_statistics(g))
        optimizer.optimize()
        n_multi_csg = count_connected_subgraphs(g) - g.n_vertices
        assert optimizer.builder.estimator.estimations == n_multi_csg
