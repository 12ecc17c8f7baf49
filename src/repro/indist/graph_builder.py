"""Construction of indistinguishability graphs (Definition 3.6).

The indistinguishability graph G^t_{x,y} is bipartite: left vertices are
the one-cycle instances V1, right vertices the two-cycle instances V2, and
{I1, I2} is an edge iff I2 = I1(e1, e2) for some pair of *active*
independent directed edges of I1 (active = head broadcasts x, tail
broadcasts y over the first t rounds).

Two builders are provided.

* :func:`build_combinatorial_graph` constructs G^0 (t = 0, empty strings,
  every directed edge active) purely combinatorially on cycle covers.
  This is the graph behind the counting lemmas 3.7-3.9.
* :func:`build_operational_graph` constructs G^t_{x,y} for an actual
  algorithm by running the simulator on a canonically wired instance of
  every one-cycle cover and reading activity off the transcripts.

Instances are identified with their input-graph structure
(:class:`~repro.instances.enumeration.CycleCover`); the paper's crossing
travels the port wiring along with the input edges, so crossing-reachable
instances are in bijection with crossing-reachable covers.

Every builder filters crossing pairs the same way: the
pair-by-pair :func:`cross_cover` loop of :func:`crossing_neighbors`
over every pair of active directed edges.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.core.algorithm import AlgorithmFactory
from repro.core.instance import BCCInstance
from repro.core.randomness import PublicCoin
from repro.core.simulator import Simulator
from repro.crossing.active import active_edges
from repro.crossing.independent import DirectedEdge
from repro.graphs.graph import Graph
from repro.instances.enumeration import (
    CycleCover,
    enumerate_one_cycle_covers,
    enumerate_two_cycle_covers,
)
from repro.indist.matching import BipartiteGraph
from repro.obs.spans import span

UEdge = Tuple[int, int]


def _edge(u: int, v: int) -> UEdge:
    return (u, v) if u < v else (v, u)


def cover_from_edges(n: int, edges: Iterable[UEdge]) -> CycleCover:
    """Reconstruct a CycleCover from a 2-regular edge set."""
    g = Graph(range(n), edges)
    cycles = tuple(tuple(c) for c in g.cycle_decomposition())
    return CycleCover.from_cycles(n, cycles)


def cross_cover(
    cover: CycleCover, e1: DirectedEdge, e2: DirectedEdge
) -> Optional[CycleCover]:
    """The cover obtained by crossing directed edges e1, e2, or None.

    Returns None when the pair is not independent in the sense of
    Definition 3.2 (shared endpoints, or a would-be new edge already
    present).
    """
    (v1, u1), (v2, u2) = e1, e2
    if len({v1, u1, v2, u2}) != 4:
        return None
    edges = cover.edges
    if _edge(v1, u1) not in edges or _edge(v2, u2) not in edges:
        return None
    new1, new2 = _edge(v1, u2), _edge(v2, u1)
    if new1 in edges or new2 in edges:
        return None
    crossed = (edges - {_edge(v1, u1), _edge(v2, u2)}) | {new1, new2}
    return cover_from_edges(cover.n, crossed)


def crossing_neighbors(
    cover: CycleCover,
    active: Optional[Sequence[DirectedEdge]] = None,
) -> Set[CycleCover]:
    """All covers reachable from ``cover`` by one crossing.

    ``active`` restricts the crossable directed edges (Definition 3.6);
    by default every directed orientation of every input edge is active,
    which is the t = 0 situation.
    """
    if active is None:
        active = []
        for u, v in sorted(cover.edges):
            active.append((u, v))
            active.append((v, u))
    out: Set[CycleCover] = set()
    for e1, e2 in combinations(active, 2):
        crossed = cross_cover(cover, e1, e2)
        if crossed is not None:
            out.add(crossed)
    return out


def one_cycle_two_cycle_neighbors(
    cover: CycleCover,
    active: Optional[Sequence[DirectedEdge]] = None,
) -> Set[CycleCover]:
    """Crossing neighbors of a one-cycle cover that are two-cycle covers."""
    return {c for c in crossing_neighbors(cover, active) if c.num_cycles == 2}


def build_combinatorial_graph(n: int) -> BipartiteGraph:
    """G^0: every directed input edge active (t = 0, empty message strings).

    Left vertices: all (n-1)!/2 one-cycle covers. Right vertices: all
    two-cycle covers (every two-cycle cover arises as a crossing of some
    one-cycle cover, so the right side is fully populated by construction;
    the tests verify it against the closed-form |V2| count).
    """
    with span("indist.build_graph", n=n, kind="combinatorial"):
        graph = BipartiteGraph()
        for one in enumerate_one_cycle_covers(n):
            graph.add_left(one)
            for two in one_cycle_two_cycle_neighbors(one):
                graph.add_edge(one, two)
        return graph


def build_operational_graph(
    simulator: Simulator,
    factory: AlgorithmFactory,
    n: int,
    rounds: int,
    x: Tuple[str, ...],
    y: Tuple[str, ...],
    coin: Optional[PublicCoin] = None,
) -> BipartiteGraph:
    """G^t_{x,y} for a concrete algorithm (Definition 3.6), on canonical
    rotation-wired KT-0 instances of every one-cycle cover.

    The right side is restricted to two-cycle covers actually reachable by
    an active crossing; isolated two-cycle covers carry no constraint in
    the lower-bound argument.
    """
    with span("indist.build_graph", n=n, kind="operational", rounds=rounds):
        graph = BipartiteGraph()
        for one in enumerate_one_cycle_covers(n):
            graph.add_left(one)
            instance = BCCInstance.kt0_from_graph(one.to_graph())
            result = simulator.run(instance, factory, rounds, coin=coin)
            act = active_edges(result, x, y)
            for two in one_cycle_two_cycle_neighbors(one, act):
                graph.add_edge(one, two)
        return graph


def all_two_cycle_covers_present(graph: BipartiteGraph, n: int) -> bool:
    """Sanity check: the right side of G^0 is all of V2."""
    expected = set(enumerate_two_cycle_covers(n))
    return graph.right == expected
