"""Degree statistics of the indistinguishability graph (Lemmas 3.7-3.9).

The counting lemmas of Section 3.1 concern the t = 0 graph G^0:

* Lemma 3.7: a one-cycle instance with d active edges has, for every
  3 <= i <= d/2, on the order of d neighbors whose own degree is on the
  order of i * (d - i) (the two-cycle instances with split i).
* Lemma 3.8: the Hall-style expansion |N(S)| >= |S| * Theta(log d).
* Lemma 3.9: |V2| = |V1| * Theta(log n).

This module measures all three exactly on enumerated instance spaces and
also evaluates the closed-form predictions, so benchmarks can print
paper-vs-measured side by side. Measured degrees are reported as-is; note
that an unordered two-cycle cover admits *two* orientation-variants of each
cross-cycle crossing, so measured two-cycle degrees are 2 * i * (n - i)
where the paper's orientation-fixed accounting says i * (n - i) -- a
constant factor that cancels everywhere in the Theta() statements.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.instances.enumeration import (
    CycleCover,
    count_one_cycle_covers,
    count_two_cycle_covers,
    count_two_cycle_covers_with_split,
)

if TYPE_CHECKING:
    from repro.indist.matching import BipartiteGraph

# The measured-degree helpers import the graph builder (and with it the
# simulator) when called: the closed forms, and the ``ratio`` command
# that prints them, need neither.


def one_cycle_degree(n: int) -> int:
    """Exact degree of a one-cycle cover in G^0: n(n-5)/2.

    For each of the n input edges, the partners that survive Definition 3.2
    are the edges at circular distance >= 3 *in both directions*: crossing
    with a distance-2 edge would create an edge that already exists. That
    leaves n - 5 partners per edge (excluding itself, the two adjacent
    edges, and the two distance-2 edges), i.e. n(n-5)/2 unordered pairs.
    The paper's Lemma 3.9 quotes n(n-3)/2, which skips the distance-2
    exclusion; the difference is an additive O(n) that vanishes in every
    Theta() statement, and the enumeration tests pin the exact value.
    """
    return n * (n - 5) // 2


def measured_one_cycle_degree(cover: CycleCover) -> int:
    """Measured number of two-cycle crossing neighbors of a one-cycle cover."""
    from repro.indist.graph_builder import one_cycle_two_cycle_neighbors

    return len(one_cycle_two_cycle_neighbors(cover))


def two_cycle_degree(n: int, i: int) -> int:
    """Measured-model degree of a two-cycle cover with split i: 2 i (n - i).

    Crossing one edge from each cycle merges them; each unordered pair of
    undirected edges admits two orientation variants, both yielding (and
    generally distinct) one-cycle covers.
    """
    return 2 * i * (n - i)


def measured_two_cycle_degree(cover: CycleCover) -> int:
    """Measured number of one-cycle crossing neighbors of a two-cycle cover."""
    from repro.indist.graph_builder import crossing_neighbors

    return sum(1 for c in crossing_neighbors(cover) if c.num_cycles == 1)


def one_cycle_neighbor_split_counts(cover: CycleCover) -> Dict[int, int]:
    """Lemma 3.7 profile: #two-cycle neighbors per smaller-cycle length i.

    The paper predicts n neighbors for each 3 <= i < n/2 and n/2 for
    i = n/2 (when n is even).
    """
    from repro.indist.graph_builder import one_cycle_two_cycle_neighbors

    counts: Dict[int, int] = {}
    for nbr in one_cycle_two_cycle_neighbors(cover):
        i = nbr.cycle_lengths()[0]
        counts[i] = counts.get(i, 0) + 1
    return counts


def predicted_split_counts(n: int) -> Dict[int, int]:
    """Lemma 3.9's per-split neighbor counts of a one-cycle instance."""
    counts = {}
    for i in range(3, n // 2 + 1):
        if n - i < 3:
            continue
        counts[i] = n // 2 if 2 * i == n else n
    return counts


def split_population_bound(n: int, i: int) -> float:
    """Lemma 3.9's bound |T_i| <= |V1| * n / (i (n - i))."""
    return count_one_cycle_covers(n) * n / (i * (n - i))


def measured_split_population(n: int, i: int) -> int:
    """Exact |T_i| from the closed-form count."""
    return count_two_cycle_covers_with_split(n, i)


def harmonic(k: int) -> float:
    """The k-th harmonic number H_k."""
    return sum(1.0 / j for j in range(1, k + 1))


def predicted_v2_v1_ratio(n: int) -> float:
    """Exact closed-form |V2| / |V1| = sum_{i} n / (2 i (n - i)), halving
    the i = n/2 term; asymptotically (1/2) ln n + O(1) (Lemma 3.9)."""
    total = 0.0
    for i in range(3, n // 2 + 1):
        if n - i < 3:
            continue
        term = n / (2.0 * i * (n - i))
        if 2 * i == n:
            term /= 2.0
        total += term
    return total


def lemma_3_9_table(ns: List[int]) -> List[Tuple[int, int, int, float, float]]:
    """Rows (n, |V1|, |V2|, ratio, (1/2) ln n) for the Lemma 3.9 benchmark."""
    rows = []
    for n in ns:
        v1 = count_one_cycle_covers(n)
        v2 = count_two_cycle_covers(n)
        rows.append((n, v1, v2, v2 / v1, 0.5 * math.log(n)))
    return rows


def hall_expansion_curve(graph: BipartiteGraph, sizes: List[int], rng) -> List[Tuple[int, float]]:
    """Measured min |N(S)| / |S| over sampled S of each size (Lemma 3.8)."""
    left = sorted(graph.iter_left(), key=repr)
    rows = []
    for size in sizes:
        if size > len(left):
            continue
        worst = float("inf")
        for _ in range(30):
            subset = rng.sample(left, size)
            worst = min(worst, len(graph.neighborhood(subset)) / size)
        rows.append((size, worst))
    return rows
