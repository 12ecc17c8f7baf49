"""Exhaustive enumeration of the V1 / V2 instance spaces.

Section 3.1 of the paper works with

* ``V1`` -- the set of all one-cycle instances (input graph = a Hamiltonian
  cycle on the n labelled vertices), and
* ``V2`` -- the set of all two-cycle instances (two disjoint cycles, each of
  length >= 3, covering the n vertices).

The crossing relation, degree profiles (Lemma 3.7), Hall conditions
(Lemma 3.8), and the |V2| = |V1| * Theta(log n) count (Lemma 3.9) are all
statements about the *input-graph* structure: which cycle covers can be
produced from which by one port-preserving crossing. This module therefore
enumerates cycle covers combinatorially (as canonical edge sets), which is
exact and vastly cheaper than enumerating wired instances; the operational
(simulator-level) counterpart lives in :mod:`repro.crossing`.

A cycle cover is represented as a :class:`CycleCover`, a frozenset of
canonical (u < v) edges plus cached structure.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import FrozenSet, Iterator, Tuple

from repro.graphs.graph import Graph

#: Canonical undirected edge on vertex indices.
UEdge = Tuple[int, int]


def _edge(u: int, v: int) -> UEdge:
    return (u, v) if u < v else (v, u)


class CycleCover:
    """A disjoint union of cycles covering ``0..n-1``, keyed by edge set."""

    __slots__ = ("n", "edges", "_cycles")

    def __init__(self, n: int, edges: FrozenSet[UEdge], cycles: Tuple[Tuple[int, ...], ...]):
        self.n = n
        self.edges = edges
        self._cycles = cycles

    @staticmethod
    def from_cycles(n: int, cycles: Tuple[Tuple[int, ...], ...]) -> "CycleCover":
        edges = []
        for cyc in cycles:
            for i, u in enumerate(cyc):
                edges.append(_edge(u, cyc[(i + 1) % len(cyc)]))
        return CycleCover(n, frozenset(edges), cycles)

    @property
    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """The cycles as vertex tuples (traversal order)."""
        return self._cycles

    @property
    def num_cycles(self) -> int:
        return len(self._cycles)

    def cycle_lengths(self) -> Tuple[int, ...]:
        return tuple(sorted(len(c) for c in self._cycles))

    def is_one_cycle(self) -> bool:
        return len(self._cycles) == 1

    def to_graph(self) -> Graph:
        return Graph(range(self.n), self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleCover):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CycleCover(n={self.n}, lengths={self.cycle_lengths()})"


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def enumerate_one_cycle_covers(n: int) -> Iterator[CycleCover]:
    """All Hamiltonian cycles on ``0..n-1``; there are (n-1)!/2 of them.

    Canonicalization: cycles are rooted at vertex 0 and the traversal
    direction is fixed by requiring the first step to be smaller than the
    last (which kills the reflection).
    """
    if n < 3:
        raise ValueError(f"cycles need n >= 3, got {n}")
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield CycleCover.from_cycles(n, ((0,) + perm,))


def _enumerate_cycles_on(vertices: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """All distinct cycles on a fixed vertex set (rooted, reflection-free)."""
    first, rest = vertices[0], vertices[1:]
    if len(vertices) == 3:
        yield vertices
        return
    for perm in permutations(rest):
        if perm[0] < perm[-1]:
            yield (first,) + perm


def enumerate_two_cycle_covers(n: int, min_length: int = 3) -> Iterator[CycleCover]:
    """All covers by exactly two disjoint cycles of length >= ``min_length``.

    The double count between a subset and its complement is avoided by
    requiring vertex 0 to lie in the first cycle.
    """
    if n < 2 * min_length:
        return
    others = tuple(range(1, n))
    for i in range(min_length, n - min_length + 1):
        for chosen in combinations(others, i - 1):
            first_set = (0,) + chosen
            second_set = tuple(v for v in others if v not in set(chosen))
            if len(second_set) < min_length:
                continue
            for c1 in _enumerate_cycles_on(first_set):
                for c2 in _enumerate_cycles_on(second_set):
                    yield CycleCover.from_cycles(n, (c1, c2))


def enumerate_multi_cycle_covers(n: int, min_length: int = 3) -> Iterator[CycleCover]:
    """All covers by one *or more* disjoint cycles of length >= min_length.

    Used by the MultiCycle machinery at small n. Enumerates set partitions
    of 0..n-1 into blocks of size >= min_length, then all cycles per block.
    """

    def blocks(remaining: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for size in range(min_length, len(remaining) + 1):
            for chosen in combinations(rest, size - 1):
                block = (first,) + chosen
                leftover = tuple(v for v in rest if v not in set(chosen))
                for tail in blocks(leftover):
                    yield (block,) + tail

    def expand(block_list: Tuple[Tuple[int, ...], ...], acc: Tuple[Tuple[int, ...], ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if not block_list:
            yield acc
            return
        for cyc in _enumerate_cycles_on(block_list[0]):
            yield from expand(block_list[1:], acc + (cyc,))

    for block_list in blocks(tuple(range(n))):
        for cover in expand(block_list, ()):
            yield CycleCover.from_cycles(n, cover)


# ----------------------------------------------------------------------
# closed-form counts (used to cross-check the enumerations and to extend
# Lemma 3.9's |V2| / |V1| ratio far beyond enumerable n)
# ----------------------------------------------------------------------
def count_one_cycle_covers(n: int) -> int:
    """|V1| = (n-1)!/2 Hamiltonian cycles on n labelled vertices."""
    if n < 3:
        raise ValueError(f"cycles need n >= 3, got {n}")
    return math.factorial(n - 1) // 2


def count_cycles_on_set(k: int) -> int:
    """Number of distinct cycles on a fixed k-set: (k-1)!/2 (1 when k = 3)."""
    if k < 3:
        raise ValueError(f"cycles need k >= 3, got {k}")
    return max(1, math.factorial(k - 1) // 2)


def count_two_cycle_covers(n: int, min_length: int = 3) -> int:
    """|V2|: covers by two disjoint cycles of length >= min_length.

    Sum over the smaller cycle length i of
    C(n, i) * (i-1)!/2 * (n-i-1)!/2, halving the i = n/2 term (where the
    subset and its complement describe the same cover).
    """
    total = 0
    for i in range(min_length, n // 2 + 1):
        if n - i < min_length:
            continue
        term = (
            math.comb(n, i)
            * count_cycles_on_set(i)
            * count_cycles_on_set(n - i)
        )
        if 2 * i == n:
            term //= 2
        total += term
    return total


def count_two_cycle_covers_with_split(n: int, i: int, min_length: int = 3) -> int:
    """|T_i|: two-cycle covers whose smaller cycle has length exactly i."""
    if i < min_length or n - i < i or n - i < min_length:
        raise ValueError(f"invalid split i={i} for n={n}")
    term = math.comb(n, i) * count_cycles_on_set(i) * count_cycles_on_set(n - i)
    if 2 * i == n:
        term //= 2
    return term


def v2_to_v1_ratio(n: int, min_length: int = 3) -> float:
    """|V2| / |V1| -- the quantity Lemma 3.9 pins to Theta(log n)."""
    return count_two_cycle_covers(n, min_length) / count_one_cycle_covers(n)
