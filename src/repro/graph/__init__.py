"""Query graph substrate: graphs, shapes, random generation, BCC machinery."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "Hyperedge": "repro.graph.hypergraph",
    "Hypergraph": "repro.graph.hypergraph",
    "random_hypergraph": "repro.graph.random",
    "QueryGraph": "repro.graph.query_graph",
    "chain_graph": "repro.graph.shapes",
    "star_graph": "repro.graph.shapes",
    "cycle_graph": "repro.graph.shapes",
    "clique_graph": "repro.graph.shapes",
    "grid_graph": "repro.graph.shapes",
    "make_shape": "repro.graph.shapes",
    "random_acyclic_graph": "repro.graph.random",
    "random_cyclic_graph": "repro.graph.random",
    "canonical_form": "repro.graph.canonical",
    "canonical_signature": "repro.graph.canonical",
    "refine_colors": "repro.graph.canonical",
    "biconnected_components": "repro.graph.bcc",
    "articulation_vertices": "repro.graph.bcc",
    "BiconnectionTree": "repro.graph.bcctree",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
