"""Tests for DOT visualization and search-space profiling."""

import pytest

from repro import (
    attach_random_statistics,
    chain_graph,
    clique_graph,
    cycle_graph,
    optimize_query,
    uniform_statistics,
)
from repro.analysis.searchspace import profile_search_space
from repro.viz import graph_to_dot, plan_to_dot


class TestGraphToDot:
    def test_plain(self):
        dot = graph_to_dot(chain_graph(3))
        assert dot.startswith("graph")
        assert dot.count("--") == 2
        assert "R0" in dot and "R2" in dot

    def test_with_catalog_annotations(self):
        catalog = uniform_statistics(chain_graph(3), cardinality=500,
                                     selectivity=0.25)
        dot = graph_to_dot(chain_graph(3), catalog)
        assert "|500|" in dot
        assert "0.25" in dot

    def test_balanced_braces(self):
        dot = graph_to_dot(cycle_graph(5))
        assert dot.count("{") == dot.count("}")


class TestPlanToDot:
    def test_structure(self):
        catalog = attach_random_statistics(chain_graph(4), seed=1)
        plan = optimize_query(catalog).plan
        dot = plan_to_dot(plan)
        assert dot.startswith("digraph")
        assert dot.count("->") == 2 * plan.n_joins()
        for leaf in plan.leaves():
            assert leaf.relation in dot

    def test_single_leaf(self):
        catalog = uniform_statistics(chain_graph(1))
        plan = optimize_query(catalog).plan
        dot = plan_to_dot(plan)
        assert "->" not in dot
        assert "R0" in dot


class TestSearchSpaceProfile:
    def test_chain_profile_matches_formulas(self):
        from repro.analysis import formulas

        profile = profile_search_space(chain_graph(8))
        assert profile.n_csg == formulas.csg_count("chain", 8)
        assert profile.n_ccp == formulas.ccp_count("chain", 8)
        assert profile.n_ngt == formulas.ngt_count("chain", 8)

    def test_clique_profile(self):
        from repro.analysis import formulas

        profile = profile_search_space(clique_graph(6))
        assert profile.n_ccp == formulas.ccp_count("clique", 6)
        # Every subset of size k is connected: C(6, k).
        import math

        for size in range(1, 7):
            assert profile.csg_by_size[size] == math.comb(6, size)

    def test_waste_factor_ordering(self):
        # Naive waste is far worse on chains than on cliques.
        chain_waste = profile_search_space(chain_graph(10)).naive_waste_factor
        clique_waste = profile_search_space(clique_graph(8)).naive_waste_factor
        assert chain_waste > 5 * clique_waste

    def test_fortunate_observation_positive(self):
        profile = profile_search_space(cycle_graph(7))
        assert profile.fortunate_observation > 1.0

    def test_render(self):
        text = profile_search_space(chain_graph(5)).render()
        assert "waste factor" in text
        assert "chain" in text
