"""K4 detection: the [DKO14] contrast problem.

The introduction contrasts Connectivity with *hard* problems in BCC(b):
Drucker, Kuhn and Oshman prove that detecting a K4 in the input graph
needs Omega(n / b) rounds -- a polynomial bound, obtained by the same
bottleneck technique but with a quadratic information demand. This module
supplies the problem definition (so the upper-bound algorithms can be
exercised against it) and the closed-form [DKO14]-shaped bound for the
benchmark tables. The trivial matching upper bound is Theta(n) rounds in
BCC(1): full-adjacency exchange, then a local clique check.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.algorithm import NO, YES
from repro.core.instance import BCCInstance
from repro.graphs.graph import Graph
from repro.problems.base import DecisionProblem


def contains_k4(graph: Graph) -> bool:
    """Does the graph contain a clique on four vertices?

    Checks each edge's common neighborhood for an adjacent pair -- O(m *
    d^2) and exact; entirely adequate at simulator scales.
    """
    for u, v in graph.edges():
        common = graph.neighbors(u) & graph.neighbors(v)
        for a, b in combinations(sorted(common, key=repr), 2):
            if graph.has_edge(a, b):
                return True
    return False


class K4Detection(DecisionProblem):
    """Does the input graph contain a K4? (No promise.)"""

    name = "K4Detection"

    def promise(self, instance: BCCInstance) -> bool:
        return True

    def ground_truth(self, instance: BCCInstance) -> str:
        return YES if contains_k4(instance.input_graph()) else NO


def dko14_round_lower_bound(n: int, bandwidth: int) -> float:
    """The Omega(n / b) shape of the [DKO14] K4-detection bound.

    The reduction routes Omega(n^2) bits of a 2-party disjointness
    instance across a cut of bandwidth O(n * b) per round; the constant
    here is normalized to 1 (the benchmark compares shapes, not
    constants).
    """
    return n / bandwidth


def trivial_upper_bound_rounds(n: int) -> int:
    """Full-adjacency exchange solves K4 detection in n rounds of BCC(1)."""
    return n
