"""Communication-complexity lower-bound calculators.

The classical facts the paper invokes, made executable:

* **Rank bound** ([KN97] Lemma 1.28, Mehlhorn-Schmidt): the deterministic
  communication complexity of f is at least log2 rank(M_f).
* **Fooling sets**: a fooling set of size s forces >= log2 s bits.
* **Protocol-partition counting**: a c-bit deterministic protocol
  partitions the input matrix into at most 2^c monochromatic rectangles;
  :func:`verify_rank_bound_on_protocol` checks a concrete protocol's cost
  against the rank bound.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence, Tuple

from repro.partitions.linalg import rank_exact


def rank_lower_bound(matrix: Sequence[Sequence[int]], kernel: str = "auto") -> float:
    """log2 rank(M_f): a lower bound on deterministic communication.

    ``kernel`` is forwarded to :func:`repro.partitions.linalg.rank_exact`;
    the bound is identical under every engine.
    """
    r = rank_exact(matrix, kernel=kernel)
    return math.log2(r) if r > 0 else 0.0


def rank_lower_bound_from_rank(rank: int) -> float:
    """log2 of an already-known rank."""
    return math.log2(rank) if rank > 0 else 0.0


def is_fooling_set(
    pairs: Sequence[Tuple[object, object]],
    f: Callable[[object, object], int],
) -> bool:
    """Check the fooling-set property for f-value-1 pairs: every pair has
    f = 1 and every two pairs have a crossed evaluation with f = 0."""
    for x, y in pairs:
        if f(x, y) != 1:
            return False
    for i, (x1, y1) in enumerate(pairs):
        for x2, y2 in pairs[i + 1 :]:
            if f(x1, y2) == 1 and f(x2, y1) == 1:
                return False
    return True


def fooling_set_lower_bound(size: int) -> float:
    """log2 of the fooling set size."""
    return math.log2(size) if size > 0 else 0.0


def verify_rank_bound_on_protocol(
    protocol,
    inputs: Iterable[Tuple[object, object]],
    matrix: Sequence[Sequence[int]],
) -> Tuple[float, int]:
    """Run a protocol on a family of inputs; return (rank bound in bits,
    worst-case measured bits). The measured cost must dominate the bound
    -- the tests assert exactly that inequality."""
    bound = rank_lower_bound(matrix)
    worst = 0
    for x, y in inputs:
        result = protocol.run(x, y)
        worst = max(worst, result.total_bits)
    return bound, worst
