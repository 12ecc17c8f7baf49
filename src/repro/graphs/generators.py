"""Graph generators for the instance families used throughout the paper.

The lower bounds all live on 2-regular inputs (single cycles, pairs of
cycles, unions of cycles), while the upper-bound comparators are exercised
on richer families (Erdos-Renyi, random forests, bounded-arboricity
layerings). Every generator returns a :class:`repro.graphs.graph.Graph`
over the vertex indices ``0 .. n-1``.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from repro.graphs.graph import Graph


def cycle_graph(vertices: Sequence[int]) -> Graph:
    """The simple cycle visiting ``vertices`` in the given order.

    Requires at least 3 distinct vertices (the paper's cycles all have
    length >= 3; shorter "cycles" would be multi-edges).
    """
    if len(vertices) < 3:
        raise ValueError(f"a cycle needs >= 3 vertices, got {len(vertices)}")
    if len(set(vertices)) != len(vertices):
        raise ValueError("cycle vertices must be distinct")
    g = Graph(vertices)
    for i, u in enumerate(vertices):
        g.add_edge(u, vertices[(i + 1) % len(vertices)])
    return g


def union_of_cycles(cycles: Iterable[Sequence[int]]) -> Graph:
    """Disjoint union of cycles, each given as an ordered vertex sequence."""
    g = Graph()
    seen: set = set()
    for cyc in cycles:
        overlap = seen.intersection(cyc)
        if overlap:
            raise ValueError(f"cycles are not disjoint; shared vertices {sorted(overlap)}")
        seen.update(cyc)
        sub = cycle_graph(cyc)
        for v in sub.vertices():
            g.add_vertex(v)
        for u, v in sub.edges():
            g.add_edge(u, v)
    return g


def one_cycle(n: int) -> Graph:
    """The canonical single n-cycle 0-1-2-...-(n-1)-0."""
    return cycle_graph(list(range(n)))


def two_cycles(n: int, split: int) -> Graph:
    """Two disjoint cycles on ``0..split-1`` and ``split..n-1``.

    Both cycles must have length >= 3, matching the TwoCycle promise.
    """
    if not (3 <= split <= n - 3):
        raise ValueError(f"split={split} must leave cycles of length >= 3 (n={n})")
    return union_of_cycles([list(range(split)), list(range(split, n))])


def random_cycle(n: int, rng: random.Random) -> Graph:
    """A uniformly random Hamiltonian cycle on ``0..n-1``."""
    order = list(range(n))
    rng.shuffle(order)
    return cycle_graph(order)


def random_union_of_cycles(n: int, num_cycles: int, rng: random.Random) -> Graph:
    """A random disjoint union of ``num_cycles`` cycles covering ``0..n-1``.

    Cycle lengths are chosen uniformly among compositions of ``n`` into
    ``num_cycles`` parts, each part >= 3 (the MultiCycle promise uses
    length >= 4; pass the result through a verifier if that matters).
    """
    if num_cycles * 3 > n:
        raise ValueError(f"cannot fit {num_cycles} cycles of length >= 3 in {n} vertices")
    # random composition with all parts >= 3: distribute the surplus
    surplus = n - 3 * num_cycles
    cuts = sorted(rng.randint(0, surplus) for _ in range(num_cycles - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(3 + c - prev)
        prev = c
    parts.append(3 + surplus - prev)
    order = list(range(n))
    rng.shuffle(order)
    cycles: List[Sequence[int]] = []
    pos = 0
    for p in parts:
        cycles.append(order[pos : pos + p])
        pos += p
    return union_of_cycles(cycles)


def gnp_random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p) on vertex indices ``0..n-1``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    g = Graph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_forest(n: int, tree_count: int, rng: random.Random) -> Graph:
    """A random forest on ``0..n-1`` with exactly ``tree_count`` trees.

    Built by a random-attachment process: vertices are shuffled, the first
    ``tree_count`` become roots, and every later vertex attaches to a
    uniformly random earlier vertex of a uniformly chosen tree.
    """
    if not 1 <= tree_count <= n:
        raise ValueError(f"tree_count must be in [1, {n}], got {tree_count}")
    order = list(range(n))
    rng.shuffle(order)
    g = Graph(range(n))
    trees: List[List[int]] = [[r] for r in order[:tree_count]]
    for v in order[tree_count:]:
        tree = rng.choice(trees)
        parent = rng.choice(tree)
        g.add_edge(v, parent)
        tree.append(v)
    return g


def bounded_arboricity_graph(n: int, arboricity: int, rng: random.Random) -> Graph:
    """Union of ``arboricity`` random spanning forests: arboricity <= given.

    This is the uniformly sparse family for which the paper notes its
    Omega(log n) lower bound is *tight* (via the deterministic sketching
    upper bound of Montealegre and Todinca).
    """
    if arboricity < 1:
        raise ValueError("arboricity must be >= 1")
    g = Graph(range(n))
    for _ in range(arboricity):
        f = random_forest(n, max(1, n // 10), rng)
        for u, v in f.edges():
            g.add_edge(u, v)
    return g


def path_graph(n: int) -> Graph:
    """The path 0-1-...-(n-1); a convenient connected non-cycle baseline."""
    g = Graph(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def empty_graph(n: int) -> Graph:
    """n isolated vertices (the maximally disconnected input)."""
    return Graph(range(n))


def complete_graph(n: int) -> Graph:
    """The complete graph K_n (used for K4-detection style discussions)."""
    g = Graph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g
