"""The Theorem 4.4 engine: KT-1 deterministic round bounds from ranks.

The chain, fully numeric at any enumerable n:

1. rank(M_n) = B_n and rank(E_n) = n!/(2^{n/2}(n/2)!) -- certified by the
   exact rank machinery (Theorem 2.3 / Lemma 4.1);
2. deterministic CC of Partition >= log2 B_n, of TwoPartition >= log2 r
   ([KN97] Lemma 1.28 -- Corollaries 2.4 / 4.2);
3. the Section 4.3 simulation converts an r-round KT-1 BCC(1) algorithm
   for Connectivity (resp. MultiCycle) on G(P_A, P_B) into a protocol of
   8n (resp. 4n) bits per round;
4. therefore r >= CC / (bits per round) = Omega(log N) rounds, N being
   the number of vertices of the reduction graph.

The default bounds read the ranks off the closed forms (Theorem 2.3 /
Lemma 4.1 give them exactly). The ``*_certified`` variants instead
*compute* rank(M_n) / rank(E_n) on the materialized matrices through the
exact rank machinery -- so the whole Theorem 4.4 chain is numeric end to
end -- and accept ``kernel`` to pick the elimination engines
(:mod:`repro.kernels`); every engine certifies the same row, which the
tests pin against the closed-form variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.partitions.bell import bell_number, perfect_matching_count
from repro.partitions.matrices import e_matrix_rank, m_matrix_rank
from repro.twoparty.simulation import PARTITION, TWO_PARTITION, simulation_bits_per_round


@dataclass(frozen=True)
class KT1RankBound:
    """One row of the Theorem 4.4 accounting."""

    ground_set: int  # n, the Partition ground set
    variant: str
    instance_vertices: int  # N = 4n or 2n
    cc_bits: float  # log2 rank
    bits_per_round: int
    round_lower_bound: float  # cc_bits / bits_per_round

    @property
    def normalized(self) -> float:
        """round bound / log2(N): the Omega(log N) constant."""
        return self.round_lower_bound / math.log2(self.instance_vertices)


def connectivity_round_bound(n: int) -> KT1RankBound:
    """Theorem 4.4 for Connectivity via Partition (the A/L/R/B graph)."""
    cc = math.log2(bell_number(n))
    bits = simulation_bits_per_round(PARTITION, n)
    return KT1RankBound(
        ground_set=n,
        variant=PARTITION,
        instance_vertices=4 * n,
        cc_bits=cc,
        bits_per_round=bits,
        round_lower_bound=cc / bits,
    )


def multicycle_round_bound(n: int) -> KT1RankBound:
    """Theorem 4.4 for MultiCycle via TwoPartition (the L/R graph)."""
    if n % 2 != 0:
        raise ValueError(f"TwoPartition needs even n, got {n}")
    cc = math.log2(perfect_matching_count(n))
    bits = simulation_bits_per_round(TWO_PARTITION, n)
    return KT1RankBound(
        ground_set=n,
        variant=TWO_PARTITION,
        instance_vertices=2 * n,
        cc_bits=cc,
        bits_per_round=bits,
        round_lower_bound=cc / bits,
    )


def connectivity_round_bound_certified(n: int, kernel: str = "auto") -> KT1RankBound:
    """Theorem 4.4 for Connectivity with rank(M_n) *computed*, not quoted.

    Builds M_n (B_n x B_n, read off the partition lattice's Möbius
    function: under a second up to n = 8) and runs the exact rank chain,
    which is what bounds n -- under a second at n = 7, ~8 s at n = 8
    with numpy; Theorem 2.3 guarantees the result equals
    :func:`connectivity_round_bound`'s closed-form row, and the tests
    pin that equality for every kernel.
    """
    rank = m_matrix_rank(n, kernel=kernel)
    cc = math.log2(rank)
    bits = simulation_bits_per_round(PARTITION, n)
    return KT1RankBound(
        ground_set=n,
        variant=PARTITION,
        instance_vertices=4 * n,
        cc_bits=cc,
        bits_per_round=bits,
        round_lower_bound=cc / bits,
    )


def multicycle_round_bound_certified(n: int, kernel: str = "auto") -> KT1RankBound:
    """Theorem 4.4 for MultiCycle with rank(E_n) *computed*, not quoted."""
    if n % 2 != 0:
        raise ValueError(f"TwoPartition needs even n, got {n}")
    rank = e_matrix_rank(n, kernel=kernel)
    cc = math.log2(rank)
    bits = simulation_bits_per_round(TWO_PARTITION, n)
    return KT1RankBound(
        ground_set=n,
        variant=TWO_PARTITION,
        instance_vertices=2 * n,
        cc_bits=cc,
        bits_per_round=bits,
        round_lower_bound=cc / bits,
    )


def round_bound_table(ns: List[int], variant: str = TWO_PARTITION) -> List[KT1RankBound]:
    """Theorem 4.4 rows over a sweep of ground-set sizes."""
    rows = []
    for n in ns:
        if variant == TWO_PARTITION:
            rows.append(multicycle_round_bound(n))
        else:
            rows.append(connectivity_round_bound(n))
    return rows


def omega_log_constant(ns: List[int], variant: str = TWO_PARTITION) -> Tuple[float, float]:
    """Min and max of bound/log2(N) over the sweep: a numeric witness that
    the bound is Theta(log N) with stable constants."""
    values = [row.normalized for row in round_bound_table(ns, variant)]
    return min(values), max(values)
