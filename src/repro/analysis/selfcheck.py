"""Installation self-check: a fast battery of the library's invariants.

``python -m repro.analysis.selfcheck`` runs in a few seconds and
verifies, on freshly sampled inputs, the properties the full test suite
establishes exhaustively — useful after installing on a new machine or
porting to a new Python version:

1. every partitioning strategy emits exactly ``P_ccp_sym(S)``,
2. all seven optimizers agree with the DPsub oracle,
3. the complexity counters match the paper's closed forms,
4. Table I's formulas match exhaustive enumeration,
5. hypergraph optimizers agree with their oracle,
6. pruning preserves optimality,
7. executor results match brute force on tiny data.

Each check returns ``(name, ok, detail)``; the module exits non-zero on
any failure.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, List, Tuple

__all__ = ["run_self_check", "CHECKS"]


def _check_partitioners() -> str:
    from repro.enumeration.base import canonical_pair
    from repro.enumeration.conservative import ConservativePartitioning
    from repro.enumeration.mincutbranch import MinCutBranch
    from repro.enumeration.mincutlazy import MinCutLazy
    from repro.enumeration.naive import NaivePartitioning
    from repro.graph.random import random_cyclic_graph

    rng = random.Random(101)
    graphs = 0
    for _ in range(12):
        n = rng.randint(3, 8)
        graph = random_cyclic_graph(n, rng.randint(n, n * (n - 1) // 2), rng=rng)
        reference = None
        for strategy_cls in (
            NaivePartitioning,
            ConservativePartitioning,
            MinCutBranch,
            MinCutLazy,
        ):
            pairs = sorted(
                canonical_pair(*p)
                for p in strategy_cls(graph).partitions(graph.all_vertices)
            )
            if reference is None:
                reference = pairs
            elif pairs != reference:
                raise AssertionError(
                    f"{strategy_cls.__name__} disagrees on {graph!r}"
                )
        graphs += 1
    return f"{graphs} random graphs, 4 strategies each"


def _check_optimizers() -> str:
    from repro.catalog.workload import attach_random_statistics
    from repro.graph.random import random_acyclic_graph
    from repro.optimizer.api import ALGORITHMS, optimize_query

    rng = random.Random(202)
    for _ in range(6):
        graph = random_acyclic_graph(rng.randint(3, 7), rng=rng)
        catalog = attach_random_statistics(graph, rng=rng)
        costs = {
            name: optimize_query(catalog, algorithm=name).cost
            for name in ALGORITHMS
        }
        reference = costs["dpsub"]
        for name, cost in costs.items():
            if not math.isclose(cost, reference, rel_tol=1e-9):
                raise AssertionError(f"{name}: {cost} != {reference}")
    return f"{len(_algorithms())} algorithms agree on 6 random queries"


def _algorithms():
    from repro.optimizer.api import ALGORITHMS

    return ALGORITHMS


def _check_complexity_counters() -> str:
    from repro.analysis import formulas
    from repro.enumeration.mincutbranch import MinCutBranch
    from repro.graph.shapes import chain_graph, cycle_graph

    for n in (6, 10):
        strategy = MinCutBranch(chain_graph(n))
        list(strategy.partitions((1 << n) - 1))
        if strategy.stats.loop_iterations != n - 1:
            raise AssertionError("chain counter mismatch")
        strategy = MinCutBranch(cycle_graph(n))
        list(strategy.partitions((1 << n) - 1))
        predicted = formulas.mcb_counters_cycle(n)
        if strategy.stats.loop_iterations != predicted["i"]:
            raise AssertionError("cycle counter mismatch")
    return "chain and cycle closed forms match (Sec. III-F)"


def _check_table1() -> str:
    from repro.analysis import formulas
    from repro.enumeration.counting import (
        count_ccps,
        count_connected_subgraphs,
        count_ngt_subsets,
    )
    from repro.graph.shapes import make_shape

    for shape in ("chain", "star", "cycle", "clique"):
        graph = make_shape(shape, 6)
        row = formulas.table1_row(shape, 6)
        if (
            count_connected_subgraphs(graph) != row["csg"]
            or count_ccps(graph) != row["ccp"]
            or count_ngt_subsets(graph) != row["ngt"]
        ):
            raise AssertionError(f"Table I mismatch for {shape}")
    return "4 shapes, enumeration == closed forms"


def _check_hypergraphs() -> str:
    from repro.catalog.hyper import attach_random_hyper_statistics
    from repro.graph.random import random_hypergraph
    from repro.optimizer.dphyp import DPhyp, HyperDPsub

    for seed in range(4):
        hypergraph = random_hypergraph(6, n_complex_edges=2, seed=seed)
        catalog = attach_random_hyper_statistics(hypergraph, seed=seed)
        a = DPhyp(catalog).optimize().cost
        b = HyperDPsub(catalog).optimize().cost
        if not math.isclose(a, b, rel_tol=1e-9):
            raise AssertionError(f"DPhyp disagrees with oracle (seed {seed})")
    return "DPhyp == exhaustive oracle on 4 random hypergraphs"


def _check_pruning() -> str:
    from repro.catalog.workload import attach_random_statistics
    from repro.graph.shapes import star_graph
    from repro.optimizer.api import optimize_query

    catalog = attach_random_statistics(star_graph(8), seed=7)
    plain = optimize_query(catalog)
    pruned = optimize_query(catalog, enable_pruning=True)
    if not math.isclose(plain.cost, pruned.cost, rel_tol=1e-9):
        raise AssertionError("pruning changed the optimum")
    return (
        f"optimum preserved; {pruned.cost_evaluations} vs "
        f"{plain.cost_evaluations} cost evaluations"
    )


def _check_executor() -> str:
    import itertools

    from repro.catalog.workload import uniform_statistics
    from repro.exec.datagen import generate_database
    from repro.exec.executor import Executor
    from repro.graph.shapes import chain_graph
    from repro.optimizer.api import optimize_query

    catalog = uniform_statistics(chain_graph(4), cardinality=10,
                                 selectivity=0.4)
    database = generate_database(catalog, max_rows=10, seed=11)
    plan = optimize_query(database.scaled_catalog).plan
    measured = Executor(database).execute(plan).n_rows
    tables = database.tables
    expected = 0
    for combo in itertools.product(*[range(t.n_rows) for t in tables]):
        if all(
            tables[u].columns[c][combo[u]] == tables[v].columns[c][combo[v]]
            for (u, v), c in database.edge_columns.items()
        ):
            expected += 1
    if measured != expected:
        raise AssertionError(f"executor {measured} != brute force {expected}")
    return f"hash-join result matches brute force ({measured} rows)"


#: name -> check callable returning a detail string (raises on failure).
CHECKS: List[Tuple[str, Callable[[], str]]] = [
    ("partitioner equivalence", _check_partitioners),
    ("optimizer agreement", _check_optimizers),
    ("complexity counters", _check_complexity_counters),
    ("Table I formulas", _check_table1),
    ("hypergraph optimizers", _check_hypergraphs),
    ("pruning soundness", _check_pruning),
    ("executor correctness", _check_executor),
]


def run_self_check(verbose: bool = True) -> bool:
    """Run all checks; return True iff everything passed."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            detail = str(exc)
            ok = False
            all_ok = False
        if verbose:
            status = "ok " if ok else "FAIL"
            print(f"[{status}] {name}: {detail}")
    return all_ok


if __name__ == "__main__":
    sys.exit(0 if run_self_check() else 1)
