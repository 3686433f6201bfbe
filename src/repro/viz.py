"""Graphviz DOT rendering for query graphs and plans.

Pure text generation (no graphviz dependency): each function returns a
DOT document that renders with ``dot -Tsvg``.  Useful for papers,
debugging, and inspecting why an optimizer chose a shape.

* :func:`graph_to_dot` — query graph with relation cardinalities and
  edge selectivities,
* :func:`plan_to_dot` — operator tree with per-node cardinality/cost.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.statistics import Catalog
from repro.graph.query_graph import QueryGraph
from repro.plan.jointree import JoinTree

__all__ = ["graph_to_dot", "plan_to_dot"]


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def graph_to_dot(
    graph: QueryGraph,
    catalog: Optional[Catalog] = None,
    name: str = "query_graph",
) -> str:
    """Render a query graph; with a catalog, annotate cards and sels."""
    lines = [f"graph {_escape(name)} {{", "  node [shape=ellipse];"]
    for v in range(graph.n_vertices):
        if catalog is not None:
            label = (
                f"{catalog.relations[v].name}\\n"
                f"|{catalog.cardinality(v):g}|"
            )
        else:
            label = f"R{v}"
        lines.append(f'  v{v} [label="{_escape(label)}"];')
    for (u, v) in graph.edges:
        if catalog is not None:
            sel = catalog.selectivity(u, v)
            lines.append(f'  v{u} -- v{v} [label="{sel:g}"];')
        else:
            lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


def plan_to_dot(plan: JoinTree, name: str = "plan") -> str:
    """Render a join tree as a DOT digraph (children point up)."""
    lines = [f"digraph {_escape(name)} {{", "  node [shape=box];"]
    counter = [0]

    def emit(node: JoinTree) -> str:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        if node.is_leaf:
            label = f"{node.relation}\\n|{node.cardinality:g}|"
            lines.append(
                f'  {node_id} [label="{_escape(label)}" shape=ellipse];'
            )
            return node_id
        impl = node.implementation or "join"
        label = (
            f"⋈ {impl}\\ncard {node.cardinality:g}\\ncost {node.cost:g}"
        )
        lines.append(f'  {node_id} [label="{_escape(label)}"];')
        left_id = emit(node.left)
        right_id = emit(node.right)
        lines.append(f"  {node_id} -> {left_id};")
        lines.append(f"  {node_id} -> {right_id};")
        return node_id

    emit(plan)
    lines.append("}")
    return "\n".join(lines)
