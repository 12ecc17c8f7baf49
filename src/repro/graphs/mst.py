"""Minimum spanning trees / forests on the graph substrate.

MST is the companion problem throughout the paper's context (the O(1) CC
upper bounds it contrasts with, and the MST-verification proof-labeling
schemes of Section 1.3). This module provides the sequential ground truth
-- Kruskal over the union-find substrate -- against which the distributed
Boruvka MST of :mod:`repro.algorithms.mst` is verified.

Weights are arbitrary comparable values; ties are broken by the canonical
edge, which makes the MST unique for any weight assignment and keeps the
distributed and sequential computations comparable edge-by-edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.graphs.components import UnionFind
from repro.graphs.graph import Graph, Vertex

#: Edge weights keyed by canonical (u, v) with u < v.
WeightMap = Dict[Tuple[Vertex, Vertex], float]


def _canonical(u: Vertex, v: Vertex) -> Tuple[Vertex, Vertex]:
    return (u, v) if u <= v else (v, u)  # type: ignore[operator]


def validate_weights(graph: Graph, weights: WeightMap) -> None:
    """Every edge must carry a weight; extra weights are rejected."""
    edges = {_canonical(u, v) for u, v in graph.edges()}
    keyed = set(weights)
    if keyed != edges:
        missing = edges - keyed
        extra = keyed - edges
        raise ValueError(
            f"weight map mismatch; missing={sorted(missing)[:3]}, extra={sorted(extra)[:3]}"
        )


def kruskal(graph: Graph, weights: WeightMap) -> Set[Tuple[Vertex, Vertex]]:
    """The minimum spanning forest, as a set of canonical edges.

    Deterministic tie-breaking by (weight, edge), so the result is the
    unique MSF under the induced total order on edges.
    """
    validate_weights(graph, weights)
    uf = UnionFind(graph.vertices())
    forest: Set[Tuple[Vertex, Vertex]] = set()
    for edge in sorted(weights, key=lambda e: (weights[e], e)):
        u, v = edge
        if uf.union(u, v):
            forest.add(edge)
    return forest


def forest_weight(forest: Iterable[Tuple[Vertex, Vertex]], weights: WeightMap) -> float:
    """Total weight of an edge set."""
    return sum(weights[_canonical(u, v)] for u, v in forest)


def is_spanning_forest(graph: Graph, edges: Set[Tuple[Vertex, Vertex]]) -> bool:
    """Acyclic, contained in the graph, and connecting each component."""
    uf = UnionFind(graph.vertices())
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if not uf.union(u, v):
            return False  # cycle
    return uf.component_count() == len(graph.connected_components())


def random_weights(graph: Graph, rng) -> WeightMap:
    """Distinct pseudorandom weights on every edge (a common MST input)."""
    edges = sorted(_canonical(u, v) for u, v in graph.edges())
    order = list(range(len(edges)))
    rng.shuffle(order)
    return {e: float(w) for e, w in zip(edges, order)}
