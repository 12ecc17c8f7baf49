"""Batched mod-p rank over numpy int64 row blocks.

The reference engine eliminates entry by entry in Python; this kernel
does one vectorized pivot search (``argmax`` over the nonzero mask of a
column slice), one row normalization, and one whole-submatrix
outer-product update + ``mod`` per pivot column. Compared to the
masked-fancy-indexing numpy path it replaces (PR 1's
``_rank_mod_p_numpy``), the outer-product update touches the trailing
submatrix exactly once per pivot and never materializes boolean-mask
copies.

Overflow safety, pinned by ``tests/kernels/test_modp.py``: entries stay
in ``[0, p)`` after every update, and the intermediate
``a - outer(col, pivot_row)`` is bounded by ``(p-1)^2`` in magnitude.
For the largest default prime ``p = 2_147_483_647`` (the Mersenne prime
``2^31 - 1``), ``(p-1)^2 = 2^62 - 2^33 + 4 < 2^63 - 1``, so the whole
reduction fits signed int64 with headroom; :func:`batched_modp_supported`
encodes exactly that bound and anything larger falls back to the
pure-python reference.

Bit-identical contract: mod-p rank and the per-column pivot structure
are mathematically determined, the column loop ticks the
:class:`~repro.resilience.Budget` once per column before the pivot
search, and the loop breaks after ``rows`` pivots -- all exactly like
the reference, so results *and* budget boundaries agree on every input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # runtime-import-free, like partitions.linalg
    from repro.resilience.budget import Budget

# optional accelerator, imported on first use; callers fall back without it
from repro.kernels.lazy_numpy import NUMPY as _np

Matrix = Sequence[Sequence[int]]

__all__ = ["HAVE_NUMPY", "batched_modp_supported", "rank_mod_p_batched"]

#: True when numpy is installed; linalg checks this before dispatching here.
HAVE_NUMPY = _np is not None

#: Largest magnitude an intermediate may reach: (p-1)^2 + (p-1).
_INT64_MAX = 2**63 - 1


def batched_modp_supported(p: int) -> bool:
    """True when the int64 reduction is overflow-safe at prime ``p``.

    The update computes ``a[r][c] - factor * pivot[c]`` with all values
    in ``[0, p)``, so the extreme intermediates are ``-(p-1)^2`` and
    ``p - 1``; both must fit signed 64-bit.
    """
    return HAVE_NUMPY and (p - 1) * (p - 1) + (p - 1) <= _INT64_MAX


def rank_mod_p_batched(
    matrix: Matrix, p: int, budget: Optional["Budget"] = None
) -> int:
    """Rank over GF(p) with batched numpy elimination.

    Requires numpy and :func:`batched_modp_supported`; callers
    (``repro.partitions.linalg``) check both and fall back to the
    pure-python reference silently -- this function raises
    ``RuntimeError`` if invoked without them (a programming error, not
    a user error).
    """
    if _np is None:
        raise RuntimeError("numpy is not available; use the reference engine")
    if not batched_modp_supported(p):
        raise RuntimeError(
            f"prime {p} overflows the int64 reduction; use the reference engine"
        )
    a = _np.asarray(
        [[int(x) % p for x in row] for row in matrix], dtype=_np.int64
    )
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        col_slice = a[pivot_row:, col]
        nonzero = col_slice != 0
        if not nonzero.any():
            continue
        pivot = pivot_row + int(nonzero.argmax())
        if pivot != pivot_row:
            a[[pivot_row, pivot]] = a[[pivot, pivot_row]]
        inv = pow(int(a[pivot_row, col]), p - 2, p)
        row_p = (a[pivot_row] * inv) % p
        a[pivot_row] = row_p
        below = a[pivot_row + 1 :]
        if below.size:
            factors = below[:, col]
            # one outer product + one mod for the whole trailing block
            below -= factors[:, None] * row_p[None, :]
            below %= p
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank
