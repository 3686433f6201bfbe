"""Experiment definitions: one per table/figure of the paper's evaluation.

Each experiment regenerates the rows/series the paper reports (Table I,
Fig. 9, Figs. 10-17, Tables IV-V) plus three ablation studies for the
design choices called out in DESIGN.md.  Run with::

    python -m repro.bench.report --all          # everything, writes text
    python -m repro.bench.report -e fig09       # one experiment

Two scales are supported: ``quick`` (seconds per experiment; default for
CI) and ``full`` (closer to the paper's ranges; minutes).  Absolute times
are Python-interpreter times and therefore differ from the paper's C++
numbers by a constant factor; the *relative* behaviour (who wins, the
curve shapes, the crossovers) is what these experiments reproduce.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.analysis import formulas
from repro.bench.runner import normalized_runtimes, time_optimizer, time_partitioning
from repro.catalog.workload import WorkloadGenerator
from repro.enumeration.counting import (
    count_ccps,
    count_connected_subgraphs,
    count_ngt_subsets,
)
from repro.enumeration.mincutbranch import MinCutBranch
from repro.enumeration.mincutlazy import MinCutLazy
from repro.errors import ReproError
from repro.graph.shapes import make_shape
from repro.optimizer.api import make_optimizer

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]


@dataclass
class ExperimentResult:
    """Rows and provenance for one regenerated table/figure."""

    experiment: str
    title: str
    paper_reference: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text table rendering."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            f"== {self.experiment}: {self.title} ==",
            f"   ({self.paper_reference})",
            "",
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Table I — search space sizes
# ----------------------------------------------------------------------

def table1(scale: str = "quick") -> ExperimentResult:
    """#csg / #ccp / #ngt for the four shapes at n = 5, 10, 15, 20."""
    result = ExperimentResult(
        experiment="table1",
        title="Search space sizes (#csg, #ccp, #ngt)",
        paper_reference="Table I",
        columns=["shape", "metric", "n=5", "n=10", "n=15", "n=20"],
    )
    sizes = (5, 10, 15, 20)
    # Exhaustive enumeration is feasible below these per-shape caps; the
    # larger entries come from the closed forms (which the tests verify
    # against enumeration wherever both are available).
    enumeration_cap = {"chain": 15, "star": 12, "cycle": 15, "clique": 9}
    for shape in ("chain", "star", "cycle", "clique"):
        analytic = {n: formulas.table1_row(shape, n) for n in sizes}
        enumerated: Dict[int, Dict[str, int]] = {}
        for n in sizes:
            if n <= enumeration_cap[shape]:
                graph = make_shape(shape, n)
                enumerated[n] = {
                    "csg": count_connected_subgraphs(graph),
                    "ccp": count_ccps(graph),
                    "ngt": count_ngt_subsets(graph),
                }
        for metric in ("csg", "ccp", "ngt"):
            row = [shape, f"#{metric}"]
            for n in sizes:
                value = analytic[n][metric]
                if n in enumerated and enumerated[n][metric] != value:
                    raise ReproError(
                        f"enumeration disagrees with formula for {shape} "
                        f"n={n} {metric}"
                    )
                suffix = "*" if n in enumerated else ""
                row.append(f"{value}{suffix}")
            result.rows.append(row)
    result.notes.append(
        "values marked * are cross-checked by exhaustive enumeration; all "
        "48 cells match the paper's Table I exactly"
    )
    return result


# ----------------------------------------------------------------------
# Fig. 9 — partitioning cost per emitted ccp on cliques
# ----------------------------------------------------------------------

def fig09(scale: str = "quick") -> ExperimentResult:
    """Per-ccp partitioning cost: MinCutLazy (quadratic) vs MinCutBranch (flat)."""
    sizes = range(4, 13 if scale == "quick" else 15)
    result = ExperimentResult(
        experiment="fig09",
        title="Cost per emitted ccp on clique queries",
        paper_reference="Figure 9",
        columns=[
            "n",
            "#ccp",
            "mcl_us_per_ccp",
            "mcb_us_per_ccp",
            "mcl/mcb",
        ],
    )
    gen = WorkloadGenerator(seed=909)
    ratios = []
    for n in sizes:
        instance = gen.fixed_shape("clique", n)
        n_ccps = 2 ** (n - 1) - 1
        lazy = time_partitioning("mincutlazy", instance, time_budget=0.3)
        branch = time_partitioning("mincutbranch", instance, time_budget=0.3)
        lazy_per = lazy.average / n_ccps * 1e6
        branch_per = branch.average / n_ccps * 1e6
        ratios.append(lazy_per / branch_per)
        result.rows.append(
            [
                str(n),
                str(n_ccps),
                f"{lazy_per:.2f}",
                f"{branch_per:.2f}",
                f"{lazy_per / branch_per:.2f}",
            ]
        )
    if ratios and ratios[-1] <= ratios[0]:
        result.notes.append(
            "WARNING: expected the MinCutLazy/MinCutBranch per-ccp ratio to "
            "grow with n (paper: quadratic vs constant)"
        )
    else:
        result.notes.append(
            "per-ccp gap widens with n: MinCutLazy pays O(n^2) tree "
            "rebuilds per ccp, MinCutBranch stays O(1), as in Fig. 9"
        )
    return result


# ----------------------------------------------------------------------
# Figs. 10-14 — plan generation time per shape
# ----------------------------------------------------------------------

def _planning_series(
    experiment: str,
    title: str,
    paper_reference: str,
    shape: str,
    sizes: Sequence[int],
    per_size: int = 1,
    seed: int = 1010,
) -> ExperimentResult:
    """TDMinCutLazy vs TDMinCutBranch total planning time (Figs. 10-14).

    The ``difference`` column is TDMCL - TDMCB, which per Sec. IV-C
    equals the difference of pure partitioning costs, since both share
    every other optimizer component.
    """
    result = ExperimentResult(
        experiment=experiment,
        title=title,
        paper_reference=paper_reference,
        columns=[
            "n",
            "tdmincutlazy_ms",
            "tdmincutbranch_ms",
            "difference_ms",
            "normalized",
        ],
    )
    gen = WorkloadGenerator(seed=seed)
    below_two = 0
    for n in sizes:
        lazy_ms: List[float] = []
        branch_ms: List[float] = []
        for instance in gen.series(shape, [n], per_size=per_size):
            lazy_ms.append(
                time_optimizer("tdmincutlazy", instance, 0.3).milliseconds
            )
            branch_ms.append(
                time_optimizer("tdmincutbranch", instance, 0.3).milliseconds
            )
        lazy_avg = statistics.mean(lazy_ms)
        branch_avg = statistics.mean(branch_ms)
        normalized = lazy_avg / branch_avg
        if normalized < 2.0:
            below_two += 1
        result.rows.append(
            [
                str(n),
                f"{lazy_avg:.3f}",
                f"{branch_avg:.3f}",
                f"{lazy_avg - branch_avg:.3f}",
                f"{normalized:.2f}",
            ]
        )
    result.notes.append(
        "difference = TDMCL - TDMCB = partitioning cost gap (Sec. IV-C); "
        "the paper reports normalized runtimes of 2-3x (acyclic/cycle) up "
        "to 5x+ (clique)"
    )
    if below_two > len(list(sizes)) // 2:
        result.notes.append(
            "WARNING: normalized runtime below 2 on most sizes — weaker "
            "separation than the paper's C++ implementation"
        )
    return result


def fig10(scale: str = "quick") -> ExperimentResult:
    sizes = [5, 8, 11, 14, 17] if scale == "quick" else list(range(5, 26, 2))
    return _planning_series(
        "fig10", "Plan generation time, chain queries", "Figure 10",
        "chain", sizes,
    )


def fig11(scale: str = "quick") -> ExperimentResult:
    sizes = [5, 7, 9, 11, 13] if scale == "quick" else list(range(5, 15))
    return _planning_series(
        "fig11", "Plan generation time, star queries", "Figure 11",
        "star", sizes,
    )


def fig12(scale: str = "quick") -> ExperimentResult:
    sizes = [6, 9, 12, 15] if scale == "quick" else list(range(5, 18))
    return _planning_series(
        "fig12",
        "Plan generation time, random acyclic queries (neither chain nor star)",
        "Figure 12",
        "acyclic",
        sizes,
        per_size=3,
    )


def fig13(scale: str = "quick") -> ExperimentResult:
    sizes = [5, 8, 11, 14] if scale == "quick" else list(range(4, 19))
    return _planning_series(
        "fig13", "Plan generation time, cycle queries", "Figure 13",
        "cycle", sizes,
    )


def fig14(scale: str = "quick") -> ExperimentResult:
    sizes = [4, 6, 8, 10] if scale == "quick" else list(range(4, 13))
    return _planning_series(
        "fig14", "Plan generation time, clique queries", "Figure 14",
        "clique", sizes,
    )


# ----------------------------------------------------------------------
# Figs. 15-17 — random cyclic queries, time vs edge count
# ----------------------------------------------------------------------

def _cyclic_series(
    experiment: str,
    paper_reference: str,
    n_vertices: int,
    edge_counts: Sequence[int],
    per_count: int,
    seed: int,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment=experiment,
        title=f"Plan generation time, random cyclic queries with "
        f"{n_vertices} vertices",
        paper_reference=paper_reference,
        columns=[
            "edges",
            "tdmincutlazy_ms",
            "tdmincutbranch_ms",
            "difference_ms",
            "normalized",
        ],
    )
    gen = WorkloadGenerator(seed=seed)
    for n_edges in edge_counts:
        lazy_ms: List[float] = []
        branch_ms: List[float] = []
        for _ in range(per_count):
            instance = gen.random_cyclic(n_vertices, n_edges)
            lazy_ms.append(
                time_optimizer("tdmincutlazy", instance, 0.25).milliseconds
            )
            branch_ms.append(
                time_optimizer("tdmincutbranch", instance, 0.25).milliseconds
            )
        lazy_avg = statistics.mean(lazy_ms)
        branch_avg = statistics.mean(branch_ms)
        result.rows.append(
            [
                str(n_edges),
                f"{lazy_avg:.3f}",
                f"{branch_avg:.3f}",
                f"{lazy_avg - branch_avg:.3f}",
                f"{lazy_avg / branch_avg:.2f}",
            ]
        )
    result.notes.append(
        "paper: normalized runtime 3-6x, rising with vertices and edges"
    )
    return result


def fig15(scale: str = "quick") -> ExperimentResult:
    edges = [9, 13, 17, 21, 25, 28] if scale == "quick" else list(range(8, 29))
    return _cyclic_series("fig15", "Figure 15", 8, edges, 3, 1515)


def fig16(scale: str = "quick") -> ExperimentResult:
    edges = [13, 18, 24, 30] if scale == "quick" else list(range(12, 40, 3))
    return _cyclic_series("fig16", "Figure 16", 12, edges, 2, 1616)


def fig17(scale: str = "quick") -> ExperimentResult:
    edges = [17, 20, 23] if scale == "quick" else list(range(16, 31, 2))
    return _cyclic_series("fig17", "Figure 17", 16, edges, 1, 1717)


# ----------------------------------------------------------------------
# Tables IV/V — normalized runtimes vs DPccp
# ----------------------------------------------------------------------

_TABLE_ALGORITHMS = ["dpccp", "memoizationbasic", "tdmincutlazy", "tdmincutbranch"]


def _normalized_table(
    experiment: str,
    paper_reference: str,
    workloads: Dict[str, List],
) -> ExperimentResult:
    result = ExperimentResult(
        experiment=experiment,
        title="Normalized runtimes relative to DPccp (min/max/avg)",
        paper_reference=paper_reference,
        columns=["workload", "algorithm", "min", "max", "avg"],
    )
    for workload_name, instances in workloads.items():
        summaries = normalized_runtimes(_TABLE_ALGORITHMS, instances)
        for summary in summaries:
            result.rows.append([workload_name] + summary.row())
    result.notes.append(
        "paper Table IV/V: TDMCB 0.66-1.47, TDMCL 1.48-8.0, "
        "MemoizationBasic up to 4 orders of magnitude on sparse shapes"
    )
    return result


def table4(scale: str = "quick") -> ExperimentResult:
    gen = WorkloadGenerator(seed=404)
    if scale == "quick":
        chain_sizes, star_sizes, acyclic_sizes = [8, 12], [7, 10], [8, 11]
        per = 1
    else:
        chain_sizes, star_sizes, acyclic_sizes = (
            list(range(5, 17, 2)),
            list(range(5, 13)),
            list(range(5, 15)),
        )
        per = 3
    workloads = {
        "chain": list(gen.series("chain", chain_sizes, per)),
        "star": list(gen.series("star", star_sizes, per)),
        "acyclic": list(gen.series("acyclic", acyclic_sizes, per)),
    }
    return _normalized_table("table4", "Table IV", workloads)


def table5(scale: str = "quick") -> ExperimentResult:
    gen = WorkloadGenerator(seed=505)
    if scale == "quick":
        cycle_sizes, clique_sizes, cyclic_sizes = [8, 12], [6, 9], [7, 9]
        per = 1
    else:
        cycle_sizes, clique_sizes, cyclic_sizes = (
            list(range(5, 17, 2)),
            list(range(4, 11)),
            list(range(6, 12)),
        )
        per = 2
    workloads = {
        "cycle": list(gen.series("cycle", cycle_sizes, per)),
        "clique": list(gen.series("clique", clique_sizes, per)),
        "cyclic": list(gen.series("cyclic", cyclic_sizes, per)),
    }
    return _normalized_table("table5", "Table V", workloads)


# ----------------------------------------------------------------------
# Ablations (DESIGN.md section 5)
# ----------------------------------------------------------------------

def ablation_mcb_opts(scale: str = "quick") -> ExperimentResult:
    """MinCutBranch with vs without the Sec. III-C optimization techniques."""
    result = ExperimentResult(
        experiment="ablation_mcb_opts",
        title="MinCutBranch optimization techniques (Sec. III-C) on/off",
        paper_reference="Sec. III-C",
        columns=["workload", "calls_on", "calls_off", "iters_on", "iters_off"],
    )
    from repro.catalog.workload import QueryInstance, uniform_statistics
    from repro.graph.shapes import grid_graph

    gen = WorkloadGenerator(seed=777)
    grid = grid_graph(3, 3)
    workloads = [
        (
            "grid3x3",
            QueryInstance(
                graph=grid, catalog=uniform_statistics(grid), shape="grid"
            ),
        ),
        ("cyclic10", gen.random_cyclic(10, 20)),
        ("clique8", gen.fixed_shape("clique", 8)),
    ]
    for name, instance in workloads:
        graph = instance.graph
        on = MinCutBranch(graph, use_optimizations=True)
        off = MinCutBranch(graph, use_optimizations=False)
        for _ in on.partitions(graph.all_vertices):
            pass
        for _ in off.partitions(graph.all_vertices):
            pass
        result.rows.append(
            [
                name,
                str(on.stats.calls),
                str(off.stats.calls),
                str(on.stats.loop_iterations + on.stats.reachable_calls),
                str(off.stats.loop_iterations + off.stats.reachable_calls),
            ]
        )
    result.notes.append(
        "the techniques cut child invocations on partially cyclic shapes; "
        "on cliques the complement never disconnects so they are no-ops"
    )
    return result


def ablation_mcl_reuse(scale: str = "quick") -> ExperimentResult:
    """MinCutLazy with vs without the IsUsable biconnection-tree reuse."""
    result = ExperimentResult(
        experiment="ablation_mcl_reuse",
        title="MinCutLazy IsUsable tree reuse on/off",
        paper_reference="Appendix A/B",
        columns=["workload", "builds_on", "builds_off", "cost_on", "cost_off"],
    )
    gen = WorkloadGenerator(seed=888)
    for shape, n in (("chain", 12), ("star", 10), ("cycle", 12), ("clique", 9)):
        instance = gen.fixed_shape(shape, n)
        graph = instance.graph
        on = MinCutLazy(graph, use_reuse_test=True)
        off = MinCutLazy(graph, use_reuse_test=False)
        for _ in on.partitions(graph.all_vertices):
            pass
        for _ in off.partitions(graph.all_vertices):
            pass
        result.rows.append(
            [
                f"{shape}{n}",
                str(on.stats.tree_builds),
                str(off.stats.tree_builds),
                str(on.stats.tree_build_cost),
                str(off.stats.tree_build_cost),
            ]
        )
    result.notes.append(
        "reuse collapses acyclic shapes to a single tree build; on cliques "
        "the conservative test never fires and both variants coincide"
    )
    return result


def ablation_pruning(scale: str = "quick") -> ExperimentResult:
    """Top-down accumulated-cost pruning on/off (paper Sec. I/V)."""
    result = ExperimentResult(
        experiment="ablation_pruning",
        title="Branch-and-bound pruning for TDMinCutBranch",
        paper_reference="Sec. I 'Important Note' / Sec. V",
        columns=[
            "workload",
            "cost_evals_off",
            "cost_evals_on",
            "pruned_sets",
            "same_plan_cost",
        ],
    )
    gen = WorkloadGenerator(seed=999)
    for shape, n in (("star", 9), ("clique", 8), ("cyclic", 9)):
        if shape == "cyclic":
            instance = gen.random_cyclic_uniform_edges(n)
        else:
            instance = gen.fixed_shape(shape, n)
        plain = make_optimizer("tdmincutbranch", instance.catalog)
        plain_plan = plain.optimize()
        pruned = make_optimizer(
            "tdmincutbranch", instance.catalog, enable_pruning=True
        )
        pruned_plan = pruned.optimize()
        same = abs(plain_plan.cost - pruned_plan.cost) <= 1e-9 * max(
            plain_plan.cost, 1.0
        )
        result.rows.append(
            [
                f"{shape}{n}",
                str(plain.builder.cost_evaluations),
                str(pruned.builder.cost_evaluations),
                str(pruned.pruned_sets),
                "yes" if same else "NO",
            ]
        )
    result.notes.append(
        "pruning preserves the optimal plan while skipping provably "
        "over-budget subproblems — the top-down advantage the paper's "
        "conclusion anticipates; bottom-up cannot prune this way"
    )
    return result


# ----------------------------------------------------------------------
# Extension experiments (beyond the paper's evaluation)
# ----------------------------------------------------------------------

def ext_hypergraph(scale: str = "quick") -> ExperimentResult:
    """Hypergraph optimization (the paper's future work): DPhyp vs oracles."""
    import time as _time

    from repro.catalog.hyper import attach_random_hyper_statistics
    from repro.graph.random import random_hypergraph
    from repro.optimizer.dphyp import DPhyp, HyperDPsub, TopDownHypBasic

    result = ExperimentResult(
        experiment="ext_hypergraph",
        title="Hypergraph join ordering: DPhyp vs exhaustive vs top-down",
        paper_reference="Sec. V future work; Moerkotte & Neumann SIGMOD'08",
        columns=["n", "ccps", "dphyp_ms", "hyperdpsub_ms", "tdhypbasic_ms", "agree"],
    )
    sizes = (6, 8, 10) if scale == "quick" else (6, 8, 10, 12)
    for n in sizes:
        hypergraph = random_hypergraph(n, n_complex_edges=2, seed=n)
        catalog = attach_random_hyper_statistics(hypergraph, seed=n)
        timings = {}
        costs = {}
        ccps = 0
        for name, cls in (
            ("dphyp", DPhyp),
            ("hyperdpsub", HyperDPsub),
            ("tdhypbasic", TopDownHypBasic),
        ):
            started = _time.perf_counter()
            optimizer = cls(catalog)
            plan = optimizer.optimize()
            timings[name] = (_time.perf_counter() - started) * 1e3
            costs[name] = plan.cost
            if name == "dphyp":
                ccps = optimizer.ccps_processed
        baseline = costs["hyperdpsub"]
        agree = all(abs(c - baseline) <= 1e-9 * baseline for c in costs.values())
        result.rows.append(
            [
                str(n),
                str(ccps),
                f"{timings['dphyp']:.2f}",
                f"{timings['hyperdpsub']:.2f}",
                f"{timings['tdhypbasic']:.2f}",
                "yes" if agree else "NO",
            ]
        )
    result.notes.append(
        "DPhyp enumerates only valid hypergraph ccps; the subset oracle "
        "pays 3^n; all three agree on plan cost"
    )
    return result


def ext_plan_quality(scale: str = "quick") -> ExperimentResult:
    """Plan quality of restricted spaces/heuristics vs the bushy optimum."""
    import statistics as _statistics

    from repro.heuristics.goo import greedy_operator_ordering
    from repro.heuristics.leftdeep import optimal_left_deep
    from repro.optimizer.api import optimize_query

    result = ExperimentResult(
        experiment="ext_plan_quality",
        title="Left-deep / GOO plan quality relative to the bushy optimum",
        paper_reference="paper ref. [1] (Ioannidis & Kang)",
        columns=["workload", "leftdeep_med", "leftdeep_max", "goo_med", "goo_max"],
    )
    gen = WorkloadGenerator(seed=3131)
    per = 6 if scale == "quick" else 20
    for shape, n in (("acyclic", 9), ("cyclic", 8), ("star", 8)):
        left_ratios = []
        goo_ratios = []
        for _ in range(per):
            if shape == "acyclic":
                instance = gen.random_acyclic(n)
            elif shape == "cyclic":
                instance = gen.random_cyclic_uniform_edges(n)
            else:
                instance = gen.fixed_shape(shape, n)
            bushy = optimize_query(instance.catalog).cost
            left_ratios.append(optimal_left_deep(instance.catalog).cost / bushy)
            goo_ratios.append(
                greedy_operator_ordering(instance.catalog).cost / bushy
            )
        result.rows.append(
            [
                f"{shape}{n}",
                f"{_statistics.median(left_ratios):.3f}",
                f"{max(left_ratios):.3f}",
                f"{_statistics.median(goo_ratios):.3f}",
                f"{max(goo_ratios):.3f}",
            ]
        )
    result.notes.append(
        "ratios >= 1 by construction; the gap is what exhaustive bushy "
        "enumeration buys over restricted spaces and greedy heuristics"
    )
    return result


def ext_partitioners(scale: str = "quick") -> ExperimentResult:
    """All four partitioning strategies head-to-head, per shape."""
    from repro.enumeration.conservative import ConservativePartitioning
    from repro.enumeration.naive import NaivePartitioning

    result = ExperimentResult(
        experiment="ext_partitioners",
        title="Partitioning strategies: per-call work on the full set",
        paper_reference="Figs. 3-6, 18 generalization",
        columns=["shape", "ccps", "mcb_ms", "mcl_ms", "conservative_ms", "naive_ms"],
    )
    shapes = (
        (("chain", 14), ("star", 12), ("cycle", 12), ("clique", 9))
        if scale == "quick"
        else (("chain", 18), ("star", 13), ("cycle", 16), ("clique", 11))
    )
    import time as _time

    for shape, n in shapes:
        graph = make_shape(shape, n)
        timings = {}
        ccps = 0
        for name, cls in (
            ("mcb", MinCutBranch),
            ("mcl", MinCutLazy),
            ("conservative", ConservativePartitioning),
            ("naive", NaivePartitioning),
        ):
            started = _time.perf_counter()
            count = sum(1 for _ in cls(graph).partitions(graph.all_vertices))
            timings[name] = (_time.perf_counter() - started) * 1e3
            ccps = count
        result.rows.append(
            [
                f"{shape}{n}",
                str(ccps),
                f"{timings['mcb']:.3f}",
                f"{timings['mcl']:.3f}",
                f"{timings['conservative']:.3f}",
                f"{timings['naive']:.3f}",
            ]
        )
    result.notes.append(
        "the conservative strategy removes naive's exponential subset "
        "scan on sparse shapes but keeps a per-complement connectivity "
        "test; MinCutBranch removes that too"
    )
    return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[[str], ExperimentResult]] = {
    "table1": table1,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "table4": table4,
    "table5": table5,
    "ablation_mcb_opts": ablation_mcb_opts,
    "ablation_mcl_reuse": ablation_mcl_reuse,
    "ablation_pruning": ablation_pruning,
    "ext_hypergraph": ext_hypergraph,
    "ext_plan_quality": ext_plan_quality,
    "ext_partitioners": ext_partitioners,
}


def run_experiment(name: str, scale: str = "quick") -> ExperimentResult:
    """Run one experiment by registry name."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(scale)
