"""Polygamous Hall's Theorem (Theorem 2.1) and k-matchings.

A *k-matching* of a bipartite graph G = (L, R, E) is a collection of
disjoint k-stars: a set A of left vertices, each assigned k distinct right
neighbors, with assignments disjoint across left vertices. Theorem 2.1
states that if |N(S)| >= k|S| for every S subseteq L then G has a
k-matching of size |L|.

The constructive content of the paper's proof -- clone every left vertex k
times and apply ordinary Hall / maximum matching -- is implemented here
directly: :func:`k_matching` builds the cloned graph and runs
Hopcroft-Karp, so when the Hall condition holds the returned k-matching
saturates L, and when it fails the deficiency is reported.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.indist.matching import BipartiteGraph, hopcroft_karp


def cloned_graph(graph: BipartiteGraph, k: int) -> BipartiteGraph:
    """The graph with k clones of every left vertex (proof of Theorem 2.1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cloned = BipartiteGraph()
    for v in graph.iter_left():
        for i in range(k):
            cloned.add_left((v, i))
            for r in graph.iter_neighbors(v):
                cloned.add_edge((v, i), r)
    for r in graph.iter_right():
        cloned.add_right(r)
    return cloned


def k_matching(graph: BipartiteGraph, k: int) -> Dict[Hashable, Tuple[Hashable, ...]]:
    """A maximum k-matching, as a map left vertex -> assigned right vertices.

    Only left vertices that received all k partners appear in the result
    (partial stars are discarded, matching the paper's definition in which
    every star has exactly k leaves).
    """
    matching = hopcroft_karp(cloned_graph(graph, k))
    stars: Dict[Hashable, List[Hashable]] = {}
    for (v, _i), r in matching.items():
        stars.setdefault(v, []).append(r)
    return {v: tuple(sorted(rs, key=repr)) for v, rs in stars.items() if len(rs) == k}


def k_matching_size(graph: BipartiteGraph, k: int) -> int:
    """The size (number of k-stars) of a maximum k-matching."""
    return len(k_matching(graph, k))


def saturates(graph: BipartiteGraph, k: int) -> bool:
    """True iff a k-matching of size |L| exists."""
    return k_matching_size(graph, k) == graph.left_count()


def max_saturating_k(graph: BipartiteGraph) -> int:
    """The largest k with a k-matching of size |L| (0 if even k=1 fails)."""
    if not graph.left_count():
        return 0
    k = 0
    while saturates(graph, k + 1):
        k += 1
        if k > graph.right_count():
            break
    return k


def hall_condition_violations(
    graph: BipartiteGraph,
    k: int,
    subsets: Iterable[Sequence[Hashable]],
) -> List[Tuple[Tuple[Hashable, ...], int]]:
    """Subsets S with |N(S)| < k|S|, reported as (S, |N(S)|)."""
    violations = []
    for subset in subsets:
        hood = graph.neighborhood(subset)
        if len(hood) < k * len(subset):
            violations.append((tuple(subset), len(hood)))
    return violations


def all_subsets_satisfy_hall(graph: BipartiteGraph, k: int) -> bool:
    """Exhaustive Hall check; only feasible for small |L| (<= ~18)."""
    left = sorted(graph.iter_left(), key=repr)
    if len(left) > 20:
        raise ValueError(f"exhaustive Hall check infeasible for |L|={len(left)}")
    for size in range(1, len(left) + 1):
        for subset in combinations(left, size):
            if len(graph.neighborhood(subset)) < k * size:
                return False
    return True


def sampled_hall_check(
    graph: BipartiteGraph,
    k: int,
    rng: random.Random,
    samples: int = 200,
    max_subset: Optional[int] = None,
) -> List[Tuple[Tuple[Hashable, ...], int]]:
    """Randomized Hall check over sampled subsets; returns violations found.

    An empty return does not *prove* the Hall condition, but Theorem 2.1's
    hypothesis is about all subsets and large instance spaces force
    sampling; the exhaustive check covers small cases in the tests.
    """
    left = sorted(graph.iter_left(), key=repr)
    if not left:
        return []
    cap = max_subset if max_subset is not None else len(left)
    subsets = []
    for _ in range(samples):
        size = rng.randint(1, max(1, cap))
        subsets.append(rng.sample(left, min(size, len(left))))
    return hall_condition_violations(graph, k, subsets)


def is_valid_k_matching(
    graph: BipartiteGraph, k: int, stars: Dict[Hashable, Tuple[Hashable, ...]]
) -> bool:
    """Validate a k-matching: k distinct neighbors per star, disjoint stars."""
    used: Set[Hashable] = set()
    for v, rights in stars.items():
        if len(rights) != k or len(set(rights)) != k:
            return False
        nbrs = graph.iter_neighbors(v)
        for r in rights:
            if r not in nbrs or r in used:
                return False
            used.add(r)
    return True
