"""Möbius function and Whitney numbers of the partition lattice.

Theorem 2.3's source is Dowling and Wilson's *Whitney Number Inequalities
for Geometric Lattices* [DW75]: the non-singularity of M_n is a statement
about the partition lattice Pi_n. This module computes the lattice-
theoretic objects directly from the enumerated lattice, so the classical
identities can be verified numerically rather than cited:

* the Möbius function mu(x, y) by recursive summation over intervals;
* mu(0, 1) = (-1)^{n-1} (n-1)! on Pi_n;
* for an interval [x, 1] with x having b blocks, mu(x, 1) =
  (-1)^{b-1} (b-1)!  (the interval is isomorphic to Pi_b);
* Whitney numbers of the second kind W_k = S(n, n - k) (Stirling), whose
  sum is B_n.

Everything is exact and exhaustive, so it is usable up to n ~ 7
(B_7 = 877 lattice elements).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.partitions.bell import bell_number, stirling2
from repro.partitions.enumeration import enumerate_partitions
from repro.partitions.set_partition import SetPartition


def interval(x: SetPartition, y: SetPartition) -> List[SetPartition]:
    """All z with x <= z <= y in the refinement order (x must refine y)."""
    if not x.refines(y):
        raise ValueError("empty interval: x does not refine y")
    return [
        z
        for z in enumerate_partitions(x.n)
        if x.refines(z) and z.refines(y)
    ]


def mobius(x: SetPartition, y: SetPartition) -> int:
    """The Möbius function mu(x, y) of the partition lattice.

    Computed by the defining recursion mu(x, x) = 1 and
    sum_{x <= z <= y} mu(x, z) = 0 for x < y.
    """
    if not x.refines(y):
        return 0
    elements = interval(x, y)
    # topologically safe: process by number of blocks descending (finer first)
    elements.sort(key=lambda z: -z.num_blocks)
    values: Dict[SetPartition, int] = {}
    for z in elements:
        if z == x:
            values[z] = 1
            continue
        total = 0
        for w in elements:
            if w != z and x.refines(w) and w.refines(z):
                total += values[w]
        values[z] = -total
    return values[y]


def mobius_bottom_top(n: int) -> int:
    """mu(0, 1) on Pi_n; classically (-1)^{n-1} (n-1)!."""
    return mobius(SetPartition.finest(n), SetPartition.coarsest(n))


def predicted_mobius_bottom_top(n: int) -> int:
    """The closed form (-1)^{n-1} (n-1)!."""
    return (-1) ** (n - 1) * math.factorial(n - 1)


def predicted_mobius_to_top(x: SetPartition) -> int:
    """mu(x, 1) = (-1)^{b-1} (b-1)! where b = #blocks of x (the interval
    [x, 1] is isomorphic to the partition lattice on the blocks)."""
    b = x.num_blocks
    return (-1) ** (b - 1) * math.factorial(b - 1)


def whitney_numbers_second_kind(n: int) -> List[int]:
    """W_k = #elements of rank k in Pi_n = S(n, n - k), k = 0 .. n-1."""
    return [stirling2(n, n - k) for k in range(n)]


def whitney_sum_is_bell(n: int) -> bool:
    """sum_k W_k = B_n (the lattice has B_n elements)."""
    return sum(whitney_numbers_second_kind(n)) == bell_number(n)


def characteristic_polynomial(n: int, t: int) -> int:
    """chi(Pi_n; t) = sum_x mu(0, x) t^{n - rank(x)} evaluated at integer t.

    Classically chi(Pi_n; t) = (t - 1)(t - 2) .. (t - n + 1); the tests
    verify the identity numerically from the enumerated lattice.
    """
    bottom = SetPartition.finest(n)
    total = 0
    for x in enumerate_partitions(n):
        rank = n - x.num_blocks
        total += mobius(bottom, x) * t ** (n - 1 - rank)
    return total


def predicted_characteristic_polynomial(n: int, t: int) -> int:
    """(t - 1)(t - 2) .. (t - n + 1)."""
    out = 1
    for k in range(1, n):
        out *= t - k
    return out
