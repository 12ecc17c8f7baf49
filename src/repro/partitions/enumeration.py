"""Enumeration of set partitions and perfect-matching partitions.

Partitions of [n] are generated in restricted-growth-string (RGS) order,
which is canonical, duplicate-free, and counts exactly B_n strings.
Perfect-matching partitions (the TwoPartition input family) are generated
by the classic pair-the-smallest recursion, giving (n-1)!! partitions.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, List, Tuple

from repro.partitions.set_partition import SetPartition


def enumerate_rgs(n: int) -> Iterator[List[int]]:
    """All restricted growth strings of length n.

    A string a_1 .. a_n is an RGS iff a_1 = 0 and
    a_{i+1} <= 1 + max(a_1 .. a_i).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        yield []
        return

    rgs = [0] * n

    def rec(i: int, max_so_far: int) -> Iterator[List[int]]:
        if i == n:
            yield list(rgs)
            return
        for label in range(max_so_far + 2):
            rgs[i] = label
            yield from rec(i + 1, max(max_so_far, label))

    yield from rec(1, 0)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All B_n set partitions of [n], in RGS order."""
    for rgs in enumerate_rgs(n):
        yield SetPartition.from_rgs(rgs)


def enumerate_perfect_matchings(n: int) -> Iterator[SetPartition]:
    """All (n-1)!! partitions of an even [n] into blocks of size 2.

    Recursion: pair the smallest unused element with each other unused
    element in turn.
    """
    if n % 2 != 0:
        raise ValueError(f"perfect matchings need an even ground set, got n={n}")

    def rec(remaining: List[int]) -> Iterator[List[List[int]]]:
        if not remaining:
            yield []
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            for tail in rec(rest):
                yield [[first, partner]] + tail

    for blocks in rec(list(range(1, n + 1))):
        yield SetPartition(n, blocks)


@lru_cache(maxsize=None)
def _suffix_counts(n: int) -> Tuple[Tuple[int, ...], ...]:
    """D[i][m]: completions of RGS positions i..n-1 given running max m."""
    D: List[List[int]] = [[0] * (n + 2) for _ in range(n + 1)]
    D[n] = [1] * (n + 2)
    for i in range(n - 1, 0, -1):
        for m in range(n + 1):
            # labels 0..m reuse the max; label m+1 raises it
            D[i][m] = (m + 1) * D[i + 1][m] + D[i + 1][m + 1]
    return tuple(tuple(row) for row in D)


def random_partition(n: int, rng: random.Random) -> SetPartition:
    """A uniformly random set partition of [n] (see :func:`random_rgs`)."""
    return SetPartition.from_rgs(random_rgs(n, rng))


def random_rgs(n: int, rng: random.Random) -> Tuple[int, ...]:
    """The RGS of a uniformly random set partition of [n].

    Uses the RGS chain with exact suffix counts D[i][m] = number of ways to
    extend an RGS prefix of length i whose running maximum is m; sampling
    label j with probability D[i+1][max(m, j)] / D[i][m] is exactly uniform
    over all B_n partitions. The table depends only on n and is built
    once per n; each draw makes n - 1 ``rng.randrange`` calls.
    """
    if n <= 0:
        raise ValueError(f"n must be >= 1, got {n}")
    D = _suffix_counts(n)
    rgs = [0] * n
    m = 0
    for i in range(1, n):
        pick = rng.randrange(D[i][m])
        # Labels 0..m each weigh D[i+1][m], so the cumulative walk lands
        # on pick // D[i+1][m]; the remaining D[i+1][m+1] picks open m+1.
        label = pick // D[i + 1][m]
        if label > m:
            label = m = m + 1
        rgs[i] = label
    return tuple(rgs)


def random_perfect_matching(n: int, rng: random.Random) -> SetPartition:
    """A uniformly random perfect-matching partition of an even [n]."""
    if n % 2 != 0:
        raise ValueError(f"perfect matchings need an even ground set, got n={n}")
    remaining = list(range(1, n + 1))
    blocks = []
    while remaining:
        first = remaining.pop(0)
        partner = remaining.pop(rng.randrange(len(remaining)))
        blocks.append([first, partner])
    return SetPartition(n, blocks)
