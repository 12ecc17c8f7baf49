"""The reduction graphs G(P_A, P_B) of Section 4.2 (Figure 2).

**Partition -> 2-party Connectivity.** Alice creates vertex sets
A = {a_1..a_n} and L = {l_1..l_n}; Bob creates R = {r_1..r_n} and
B = {b_1..b_n}. The rungs (l_i, r_i) exist for every i independent of the
inputs. Alice wires a_i to every l_j with j in the i-th part of P_A (empty
parts get nothing), and connects every otherwise-isolated a-vertex to the
designated l* = l_n; Bob mirrors this with B and R. Theorem 4.3: the
connected components of G(P_A, P_B), restricted to L (equivalently R),
induce exactly the partition P_A ∨ P_B -- so G is connected iff
P_A ∨ P_B = 1.

**TwoPartition -> 2-party MultiCycle.** When every part has exactly two
elements the sets A and B are dropped: Alice adds the edge (l_i, l_j) for
every pair {i, j} in P_A, Bob adds (r_i, r_j) for every pair in P_B. Every
vertex then has degree exactly 2, so every component is a cycle, and each
cycle alternates rungs with Alice/Bob pair-edges, making its length >= 4.

Both constructions are provided as abstract graphs over named vertices and
as fully wired KT-1 :class:`BCCInstance` objects using the paper's ID
scheme (a_i, l_i, r_i, b_i get IDs i, n+i, 2n+i, 3n+i), with the hosting
split (Alice: A ∪ L, Bob: B ∪ R) exposed for the Section 4.3 simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.instance import BCCInstance
from repro.graphs.graph import Graph
from repro.partitions.set_partition import SetPartition

#: Named vertices of the reduction graphs.
NamedVertex = Tuple[str, int]  # ("a" | "l" | "r" | "b", 1-based index)


@dataclass(frozen=True)
class ReductionGraph:
    """A reduction graph plus its bookkeeping."""

    n: int
    graph: Graph  # over NamedVertex
    alice_vertices: FrozenSet[NamedVertex]
    bob_vertices: FrozenSet[NamedVertex]
    has_ab_sets: bool  # True for the Partition variant, False for TwoPartition

    def l_vertices(self) -> List[NamedVertex]:
        return [("l", i) for i in range(1, self.n + 1)]

    def r_vertices(self) -> List[NamedVertex]:
        return [("r", i) for i in range(1, self.n + 1)]

    def induced_partition_on_l(self) -> SetPartition:
        """The partition of [n] induced by components on L (Theorem 4.3)."""
        blocks: Dict[int, Set[int]] = {}
        component_of: Dict[NamedVertex, int] = {}
        for idx, comp in enumerate(self.graph.connected_components()):
            for v in comp:
                component_of[v] = idx
        for i in range(1, self.n + 1):
            blocks.setdefault(component_of[("l", i)], set()).add(i)
        return SetPartition(self.n, blocks.values())

    def induced_partition_on_r(self) -> SetPartition:
        """Same partition read off the R side."""
        blocks: Dict[int, Set[int]] = {}
        component_of: Dict[NamedVertex, int] = {}
        for idx, comp in enumerate(self.graph.connected_components()):
            for v in comp:
                component_of[v] = idx
        for i in range(1, self.n + 1):
            blocks.setdefault(component_of[("r", i)], set()).add(i)
        return SetPartition(self.n, blocks.values())

    def is_connected(self) -> bool:
        return self.graph.is_connected()


def build_partition_reduction(pa: SetPartition, pb: SetPartition) -> ReductionGraph:
    """G(P_A, P_B) for the Partition -> Connectivity reduction (Fig. 2 left)."""
    n = _common_n(pa, pb)
    g = Graph()
    for i in range(1, n + 1):
        for kind in ("a", "l", "r", "b"):
            g.add_vertex((kind, i))
        g.add_edge(("l", i), ("r", i))

    _wire_side(g, pa, owner="a", column="l", n=n)
    _wire_side(g, pb, owner="b", column="r", n=n)

    alice = frozenset([("a", i) for i in range(1, n + 1)] + [("l", i) for i in range(1, n + 1)])
    bob = frozenset([("b", i) for i in range(1, n + 1)] + [("r", i) for i in range(1, n + 1)])
    return ReductionGraph(n=n, graph=g, alice_vertices=alice, bob_vertices=bob, has_ab_sets=True)


def build_two_partition_reduction(pa: SetPartition, pb: SetPartition) -> ReductionGraph:
    """G(P_A, P_B) for TwoPartition -> MultiCycle (Fig. 2 right).

    Requires perfect-matching inputs; the result is 2-regular.
    """
    n = _common_n(pa, pb)
    if not (pa.is_perfect_matching() and pb.is_perfect_matching()):
        raise ValueError("TwoPartition reduction requires perfect-matching inputs")
    g = Graph()
    for i in range(1, n + 1):
        g.add_vertex(("l", i))
        g.add_vertex(("r", i))
        g.add_edge(("l", i), ("r", i))
    for i, j in pa.blocks:
        g.add_edge(("l", i), ("l", j))
    for i, j in pb.blocks:
        g.add_edge(("r", i), ("r", j))
    alice = frozenset(("l", i) for i in range(1, n + 1))
    bob = frozenset(("r", i) for i in range(1, n + 1))
    return ReductionGraph(n=n, graph=g, alice_vertices=alice, bob_vertices=bob, has_ab_sets=False)


def _wire_side(g: Graph, partition: SetPartition, owner: str, column: str, n: int) -> None:
    """Alice's (or Bob's) A-to-L wiring, including the l* catch-all."""
    used_owners = 0
    for block in partition.blocks:
        used_owners += 1
        for j in block:
            g.add_edge((owner, used_owners), (column, j))
    # remaining owner vertices attach to the arbitrary anchor column vertex l*
    for k in range(used_owners + 1, n + 1):
        g.add_edge((owner, k), (column, n))


# ----------------------------------------------------------------------
# KT-1 instances with the paper's ID scheme, plus the hosting split
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HostedInstance:
    """A KT-1 BCC instance together with the Alice/Bob vertex hosting."""

    instance: BCCInstance
    alice_indices: Tuple[int, ...]
    bob_indices: Tuple[int, ...]
    name_of_index: Tuple[NamedVertex, ...]

    @property
    def n_vertices(self) -> int:
        return self.instance.n


def paper_id(kind: str, i: int, n: int) -> int:
    """The paper's ID scheme: a_i -> i, l_i -> n+i, r_i -> 2n+i, b_i -> 3n+i."""
    offset = {"a": 0, "l": 1, "r": 2, "b": 3}[kind]
    return offset * n + i


def to_kt1_instance(reduction: ReductionGraph) -> HostedInstance:
    """Wire a reduction graph into a KT-1 BCC instance.

    Vertex indices are assigned in ID order, and vertex IDs follow the
    paper's scheme so that both parties can derive everything about their
    hosted vertices from their own input alone.
    """
    n = reduction.n
    named = sorted(reduction.graph.vertices(), key=lambda v: paper_id(v[0], v[1], n))
    index_of = {name: idx for idx, name in enumerate(named)}
    ids = [paper_id(kind, i, n) for kind, i in named]
    index_graph = Graph(range(len(named)))
    for u, v in reduction.graph.edges():
        index_graph.add_edge(index_of[u], index_of[v])
    instance = BCCInstance.kt1_from_graph(index_graph, ids=ids)
    alice = tuple(sorted(index_of[v] for v in reduction.alice_vertices))
    bob = tuple(sorted(index_of[v] for v in reduction.bob_vertices))
    return HostedInstance(
        instance=instance,
        alice_indices=alice,
        bob_indices=bob,
        name_of_index=tuple(named),
    )


def _common_n(pa: SetPartition, pb: SetPartition) -> int:
    if pa.n != pb.n:
        raise ValueError(f"inputs over different ground sets [{pa.n}] vs [{pb.n}]")
    return pa.n
