"""The Partition matrices M_n and E_n and their ranks.

M_n is the B_n x B_n 0/1 matrix indexed by all set partitions of [n] with
M_n(i, j) = 1 iff P_i ∨ P_j = 1 (the trivial one-block partition).
Theorem 2.3 (Dowling-Wilson): rank(M_n) = B_n, i.e. M_n is non-singular.

E_n is the submatrix of M_n indexed by the perfect-matching partitions
(every block of size exactly 2); Lemma 4.1 shows rank(E_n) = r with
r = n!/(2^{n/2} (n/2)!), via the general fact that a principal submatrix of
a full-rank matrix on matching row/column sets has full rank.

By [KN97, Lemma 1.28] (Mehlhorn-Schmidt), the deterministic two-party
communication complexity of a Boolean function is at least log2 of the rank
of its communication matrix -- giving Corollaries 2.4 and 4.2:
D(Partition) = Omega(n log n) and D(TwoPartition) = Omega(n log n).

Every row is read off the Möbius factorization M = Z·D·Zᵀ of the
partition lattice (:func:`_join_masks`): Z[P, x] = [P <= x] and
D = diag(mu(x, 1)). That costs sum_k S(n, k)·B_k big-int additions
(19,302 at n = 7) instead of one union-find join per cell (769k at
n = 7); :func:`~repro.partitions.set_partition.joins_to_top` is kept as
the test oracle. The builders (:func:`build_m_matrix` /
:func:`build_e_matrix`) decode the row masks into the dense B_n x B_n
list of lists, the public form and the tests' oracle. The rank
functions skip it: when the batched numpy engine will run, they decode
the masks straight into one B_n x B_n uint8 array (one byte per cell,
~17 MB for M_8, where a list of lists holds a pointer per cell, ~137
MB); otherwise they rank the list of lists, which the pure-python
engines read fastest. ``ranks --max-n 8`` peaks at ~200 MB with numpy
(EXPERIMENTS.md P24), most of it the kernel's int64 copy of M_8.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.partitions.bell import bell_number, perfect_matching_count
from repro.partitions.enumeration import (
    enumerate_partitions,
    enumerate_perfect_matchings,
    enumerate_rgs,
)
from repro.kernels.lazy_numpy import NUMPY as _np
from repro.partitions.linalg import is_full_rank, rank_exact, rank_reads_arrays
from repro.partitions.set_partition import SetPartition


# ----------------------------------------------------------------------
# memoized enumeration (shared by every builder at the same n)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_partitions_cached(n: int) -> Tuple[SetPartition, ...]:
    """All set partitions of [n] in RGS order, enumerated once per process."""
    return tuple(enumerate_partitions(n))


@lru_cache(maxsize=None)
def _all_matchings_cached(n: int) -> Tuple[SetPartition, ...]:
    """All perfect matchings of an even [n], enumerated once per process."""
    return tuple(enumerate_perfect_matchings(n))


def partitions_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[SetPartition, ...]:
    """Memoized ``enumerate_partitions(n)``; counts repeat hits.

    ``m_matrix_rank`` and every builder at the same ``n`` share one
    enumeration; each repeated call increments the
    ``partitions.enumeration_cache_hits`` counter (mirroring
    ``exhaustive.pair_cache_hits``) and costs one dict lookup.
    """
    if metrics is None:
        metrics = get_registry()
    hits_before = _all_partitions_cached.cache_info().hits
    table = _all_partitions_cached(n)
    if metrics is not None and _all_partitions_cached.cache_info().hits > hits_before:
        metrics.counter("partitions.enumeration_cache_hits").inc()
    return table


def matchings_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[SetPartition, ...]:
    """Memoized ``enumerate_perfect_matchings(n)``; counts repeat hits."""
    if metrics is None:
        metrics = get_registry()
    hits_before = _all_matchings_cached.cache_info().hits
    table = _all_matchings_cached(n)
    if metrics is not None and _all_matchings_cached.cache_info().hits > hits_before:
        metrics.counter("partitions.enumeration_cache_hits").inc()
    return table


def clear_enumeration_cache() -> None:
    """Drop the memoized partition/matching tables (tests; memory pressure)."""
    _all_partitions_cached.cache_clear()
    _all_matchings_cached.cache_clear()


# ----------------------------------------------------------------------
# row bitmasks from the Möbius factorization
# ----------------------------------------------------------------------

def _mobius_to_top(blocks: int) -> int:
    """mu(x, 1) for x with ``blocks`` blocks: (-1)^(b-1) (b-1)!.

    [x, 1] is isomorphic to Pi_b. Pi_0 has no one-block partition, so
    the empty partition never joins to the top and weighs 0.
    """
    if blocks == 0:
        return 0
    return (-1) ** (blocks - 1) * math.factorial(blocks - 1)


@lru_cache(maxsize=None)
def _coarsenings(blocks: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Every way to merge ``blocks`` ordered blocks, with its mu(x, 1).

    An RGS r of length b merges block k into block r[k]; as blocks are
    ordered by least element, relabelling element e by r[block of e]
    gives the coarsening's own RGS, so these are the up-sets' keys.
    """
    return tuple(
        (tuple(r), _mobius_to_top(max(r, default=-1) + 1))
        for r in enumerate_rgs(blocks)
    )


def _join_masks(partitions: Sequence[SetPartition]) -> List[int]:
    """Row bitmasks of the join-to-top matrix over ``partitions``.

    Bit j of mask i is set iff P_i ∨ P_j = 1. Möbius inversion on the
    partition lattice gives [P ∨ Q = 1] = sum_{x >= P, x >= Q} mu(x, 1),
    i.e. M = Z·D·Zᵀ with Z[P, x] = [P <= x] and D = diag(mu(x, 1)). So
    with ``down[x]`` the bitmask of the P <= x, row P is the integer
    sum_{x >= P} mu(x, 1)·down[x]: every entry is 0 or 1 and Python
    ints do not overflow, so the sum is exact. The up-set of P is
    Pi_{b(P)}, so the work is sum_k S(n, k)·B_k terms, not |family|^2
    joins.
    """
    if not partitions:
        return []
    n = partitions[0].n
    ids: Dict[Tuple[int, ...], int] = {}
    down: List[int] = []
    weight: List[int] = []
    ups: List[List[int]] = []
    for j, p in enumerate(partitions):
        if p.n != n:
            raise PartitionError(
                f"partitions over different ground sets [{n}] vs [{p.n}]"
            )
        labels = p.rgs()
        bit = 1 << j
        up = []
        for r, mu in _coarsenings(p.num_blocks):
            key = tuple([r[k] for k in labels])
            x = ids.get(key)
            if x is None:
                x = ids[key] = len(down)
                down.append(bit)
                weight.append(mu)
            else:
                down[x] |= bit
            up.append(x)
        ups.append(up)
    # Free each table once consumed, before the row sums allocate theirs.
    del ids
    weighted = [mu * mask for mu, mask in zip(weight, down)]
    del down
    return [sum([weighted[x] for x in up]) for up in ups]


#: '0'/'1' characters to 0/1 bytes, for decoding a row mask.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_bits(mask: int, width: int) -> bytes:
    """The ``width`` low bits of ``mask`` as 0/1 bytes, bit 0 first."""
    return format(mask, f"0{width}b")[::-1].encode("ascii").translate(_BITS)


# ----------------------------------------------------------------------
# dense matrices
# ----------------------------------------------------------------------

def partition_matrix(partitions: Sequence[SetPartition]) -> List[List[int]]:
    """The 0/1 join-to-top matrix over an arbitrary partition family."""
    width = len(partitions)
    return [list(_mask_bits(mask, width)) for mask in _join_masks(partitions)]


def build_m_matrix(n: int) -> Tuple[List[SetPartition], List[List[int]]]:
    """All partitions of [n] and the full M_n matrix (B_n x B_n)."""
    partitions = list(partitions_for(n))
    return partitions, partition_matrix(partitions)


def build_e_matrix(n: int) -> Tuple[List[SetPartition], List[List[int]]]:
    """Perfect-matching partitions of an even [n] and the E_n matrix (r x r)."""
    matchings = list(matchings_for(n))
    return matchings, partition_matrix(matchings)


# ----------------------------------------------------------------------
# the paper's rank facts
# ----------------------------------------------------------------------

def _rank_rows(partitions: Sequence[SetPartition], kernel: str):
    """The join-to-top matrix over ``partitions``, in the form its rank reads.

    A uint8 array decoded straight from the row masks when
    :func:`~repro.partitions.linalg.rank_reads_arrays` (no list of
    lists); the :func:`partition_matrix` list of lists otherwise. Every
    engine converts each entry with ``int()``, so both forms give the
    same rank and the same budget ticks.
    """
    if not rank_reads_arrays(kernel):
        return partition_matrix(partitions)
    width = len(partitions)
    bits = b"".join([_mask_bits(mask, width) for mask in _join_masks(partitions)])
    return _np.frombuffer(bits, dtype=_np.uint8).reshape(width, width)


def m_matrix_rank(n: int, kernel: str = "auto") -> int:
    """rank(M_n), computed exactly; Theorem 2.3 predicts B_n.

    ``kernel`` picks the rank engine (``repro.kernels``) -- every mode
    returns the same value.
    """
    return rank_exact(_rank_rows(partitions_for(n), kernel), kernel=kernel)


def e_matrix_rank(n: int, kernel: str = "auto") -> int:
    """rank(E_n), computed exactly; Lemma 4.1 predicts n!/(2^{n/2}(n/2)!).

    Same knobs as :func:`m_matrix_rank`.
    """
    return rank_exact(_rank_rows(matchings_for(n), kernel), kernel=kernel)


def m_matrix_is_full_rank(n: int, kernel: str = "auto") -> bool:
    """One-prime certificate that M_n is non-singular."""
    return is_full_rank(_rank_rows(partitions_for(n), kernel), kernel=kernel)


def e_matrix_is_full_rank(n: int, kernel: str = "auto") -> bool:
    """One-prime certificate that E_n is non-singular."""
    return is_full_rank(_rank_rows(matchings_for(n), kernel), kernel=kernel)


def partition_cc_lower_bound(n: int) -> float:
    """log2 rank(M_n) = log2 B_n bits (Corollary 2.4): a lower bound on the
    deterministic 2-party communication complexity of Partition."""
    return math.log2(bell_number(n))


def two_partition_cc_lower_bound(n: int) -> float:
    """log2 rank(E_n) = log2 r bits (Corollary 4.2) for even n."""
    return math.log2(perfect_matching_count(n))
