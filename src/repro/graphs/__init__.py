"""Graph substrate: graph type, components, generators, arboricity tools."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "arboricity_upper_bound": "repro.graphs.arboricity",
    "degeneracy": "repro.graphs.arboricity",
    "greedy_forest_decomposition": "repro.graphs.arboricity",
    "is_uniformly_sparse": "repro.graphs.arboricity",
    "nash_williams_lower_bound": "repro.graphs.arboricity",
    "UnionFind": "repro.graphs.components",
    "component_labels": "repro.graphs.components",
    "components_from_edges": "repro.graphs.components",
    "labels_agree_with_components": "repro.graphs.components",
    "bounded_arboricity_graph": "repro.graphs.generators",
    "complete_graph": "repro.graphs.generators",
    "cycle_graph": "repro.graphs.generators",
    "empty_graph": "repro.graphs.generators",
    "gnp_random_graph": "repro.graphs.generators",
    "one_cycle": "repro.graphs.generators",
    "path_graph": "repro.graphs.generators",
    "random_cycle": "repro.graphs.generators",
    "random_forest": "repro.graphs.generators",
    "random_union_of_cycles": "repro.graphs.generators",
    "two_cycles": "repro.graphs.generators",
    "union_of_cycles": "repro.graphs.generators",
    "Edge": "repro.graphs.graph",
    "Graph": "repro.graphs.graph",
    "Vertex": "repro.graphs.graph",
    "normalize_edge": "repro.graphs.graph",
    "WeightMap": "repro.graphs.mst",
    "forest_weight": "repro.graphs.mst",
    "is_spanning_forest": "repro.graphs.mst",
    "kruskal": "repro.graphs.mst",
    "random_weights": "repro.graphs.mst",
    "validate_weights": "repro.graphs.mst",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
