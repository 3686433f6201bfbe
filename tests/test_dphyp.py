"""Tests for hypergraph optimization: DPhyp, HyperDPsub, TopDownHypBasic."""

import math

import pytest

from repro import (
    DPhyp,
    HyperCatalog,
    HyperDPsub,
    Hypergraph,
    Relation,
    TopDownHypBasic,
    attach_random_hyper_statistics,
    attach_random_statistics,
    optimize_query,
    random_hypergraph,
    uniform_hyper_statistics,
)
from repro.errors import CatalogError, OptimizationError

from .conftest import random_connected_graph


def _lift_catalog(catalog):
    """Lift a plain-graph Catalog into an equivalent HyperCatalog."""
    hypergraph = Hypergraph.from_query_graph(catalog.graph)
    selectivities = {}
    for edge in hypergraph.edges:
        u = edge.u.bit_length() - 1
        v = edge.v.bit_length() - 1
        selectivities[edge] = catalog.selectivity(u, v)
    return HyperCatalog(hypergraph, catalog.relations, selectivities)


class TestHyperCatalog:
    def test_requires_all_edges(self):
        hg = Hypergraph(2, [(0b1, 0b10)])
        with pytest.raises(CatalogError):
            HyperCatalog(hg, [Relation("a", 1.0), Relation("b", 1.0)], {})

    def test_rejects_unknown_edge(self):
        from repro.graph.hypergraph import Hyperedge

        hg = Hypergraph(3, [(0b1, 0b10)])
        relations = [Relation(f"R{i}", 1.0) for i in range(3)]
        with pytest.raises(CatalogError):
            HyperCatalog(
                hg,
                relations,
                {Hyperedge(0b1, 0b10): 0.5, Hyperedge(0b10, 0b100): 0.5},
            )

    def test_estimate_includes_covered_edges_only(self):
        hg = Hypergraph(3, [(0b001, 0b010), (0b001, 0b110)])
        catalog = uniform_hyper_statistics(hg, cardinality=10.0, selectivity=0.5)
        assert math.isclose(catalog.estimate(0b011), 10 * 10 * 0.5)
        assert math.isclose(catalog.estimate(0b111), 1000 * 0.5 * 0.5)

    def test_selectivity_between_applies_completed_edges(self):
        hg = Hypergraph(3, [(0b001, 0b010), (0b001, 0b110)])
        catalog = uniform_hyper_statistics(hg, selectivity=0.5)
        # Joining {0,1} with {2} completes the hyperedge ({0},{1,2}).
        assert math.isclose(catalog.selectivity_between(0b011, 0b100), 0.5)
        # Joining {0} with {1}: only the simple edge applies.
        assert math.isclose(catalog.selectivity_between(0b001, 0b010), 0.5)

    def test_split_invariance(self):
        for seed in range(10):
            hg = random_hypergraph(6, n_complex_edges=2, seed=seed)
            catalog = attach_random_hyper_statistics(hg, seed=seed)
            full = catalog.estimate(hg.all_vertices)
            for left in range(1, hg.all_vertices):
                right = hg.all_vertices ^ left
                if right == 0:
                    continue
                combined = (
                    catalog.estimate(left)
                    * catalog.estimate(right)
                    * catalog.selectivity_between(left, right)
                )
                assert math.isclose(combined, full, rel_tol=1e-9)
                break


class TestDPhypOnPlainGraphs:
    def test_matches_plain_graph_optimizers(self, rng):
        for _ in range(20):
            graph = random_connected_graph(rng, max_vertices=7)
            catalog = attach_random_statistics(graph, rng=rng)
            expected = optimize_query(catalog, algorithm="dpsub").cost
            lifted = _lift_catalog(catalog)
            assert math.isclose(
                DPhyp(lifted).optimize().cost, expected, rel_tol=1e-9
            )

    def test_pair_count_matches_dpccp(self, rng):
        from repro import DPccp

        for _ in range(10):
            graph = random_connected_graph(rng, max_vertices=7)
            catalog = attach_random_statistics(graph, rng=rng)
            dpccp = DPccp(catalog)
            dpccp.optimize()
            dphyp = DPhyp(_lift_catalog(catalog))
            dphyp.optimize()
            assert dphyp.ccps_processed == dpccp.ccps_processed


class TestDPhypOnHypergraphs:
    def test_agrees_with_oracles(self):
        for seed in range(25):
            hg = random_hypergraph(6, n_complex_edges=2, seed=seed)
            catalog = attach_random_hyper_statistics(hg, seed=seed)
            reference = HyperDPsub(catalog).optimize()
            dphyp_plan = DPhyp(catalog).optimize()
            topdown_plan = TopDownHypBasic(catalog).optimize()
            assert math.isclose(
                dphyp_plan.cost, reference.cost, rel_tol=1e-9
            ), (seed, hg)
            assert math.isclose(
                topdown_plan.cost, reference.cost, rel_tol=1e-9
            ), (seed, hg)
            dphyp_plan.validate()
            topdown_plan.validate()

    def test_hyperedge_forces_bushy_plan(self):
        # R0-R1 and R2-R3 simple; predicate over ({0,1}, {2,3}): the only
        # valid plans join the two pairs first -> necessarily bushy.
        hg = Hypergraph(4, [(0b0001, 0b0010), (0b0100, 0b1000),
                            (0b0011, 0b1100)])
        catalog = uniform_hyper_statistics(hg)
        plan = DPhyp(catalog).optimize()
        assert not plan.is_left_deep()
        assert plan.left.vertex_set in (0b0011, 0b1100)

    def test_disconnected_hypergraph_rejected(self):
        hg = Hypergraph(3, [(0b001, 0b110)])  # not connected (see substrate tests)
        catalog = uniform_hyper_statistics(hg)
        for optimizer_cls in (DPhyp, HyperDPsub, TopDownHypBasic):
            with pytest.raises(OptimizationError):
                optimizer_cls(catalog).optimize()

    def test_memo_entries_are_connected_sets_only(self):
        for seed in range(5):
            hg = random_hypergraph(6, n_complex_edges=2, seed=seed)
            catalog = attach_random_hyper_statistics(hg, seed=seed)
            optimizer = DPhyp(catalog)
            optimizer.optimize()
            for entry in optimizer.builder.memo.entries():
                assert hg.is_connected(entry.vertex_set), (seed, entry)

    def test_dphyp_visits_each_pair_once(self):
        for seed in range(8):
            hg = random_hypergraph(6, n_complex_edges=2, seed=seed)
            catalog = attach_random_hyper_statistics(hg, seed=seed)
            dphyp = DPhyp(catalog)
            dphyp.optimize()
            oracle = TopDownHypBasic(catalog)
            oracle.optimize()
            assert dphyp.ccps_processed == oracle.partitions_emitted

    def test_dphyp_is_output_sensitive_the_oracle_is_not(self):
        # DPhyp processes exactly the valid ccps; the subset oracle examines
        # every split of every connected subset (~3^n/2 candidates).  Work
        # counters make the comparison deterministic (wall time is not).
        catalog = attach_random_hyper_statistics(
            random_hypergraph(10, n_complex_edges=2, seed=10), seed=10
        )
        dphyp = DPhyp(catalog)
        dphyp.optimize()
        oracle = HyperDPsub(catalog)
        oracle.optimize()
        assert dphyp.ccps_processed * 5 < oracle.subsets_considered

    def test_two_relations(self):
        hg = Hypergraph(2, [(0b1, 0b10)])
        plan = DPhyp(uniform_hyper_statistics(hg)).optimize()
        assert plan.n_joins() == 1
