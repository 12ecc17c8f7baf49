"""Batched mod-p rank over numpy int64 row blocks.

The reference engine eliminates entry by entry in Python. This kernel
fills one int64 array row by row, then per pivot column does one
vectorized pivot search (``flatnonzero`` down the column from the
current pivot row) and one row normalization, and updates only the
rows the pivot touches: the other nonzeros of that search. Those rows
alone are gathered over ``a[:, col:]``, reduced by
``factor x pivot_row`` and scattered back; everything left of ``col``
is already zero below the pivot row. M_n empties fast under
elimination, so most factors are zero and most rows are skipped. The
gather runs in chunks of ``_CHUNK_ROWS`` rows, which keeps the
temporaries at two chunk-sized blocks instead of one outer product the
size of the trailing submatrix.

Lazy reduction: the elimination reads only the pivot column (the
search and the factors) and the pivot row, so those two are reduced
mod p in place before they are read, and the updated rows are reduced
after each update only when they have to be. An update subtracts
``factor x pivot_entry``, at most ``(p-1)^2``, from the entries right
of the pivot column and sets the pivot column itself to exactly 0.
Between two reductions an entry takes at most one update per pivot
above its row and left of its column; taking ``k = min(rows, cols)``
of them would need ``k`` pivot rows above it and ``k`` pivot columns
left of it, which no ``rows x cols`` matrix has. So every entry stays
in ``[-(k-1) (p-1)^2, p-1]``, and when
``(k-1) (p-1)^2 + (p-1) <= 2^63 - 1`` (:func:`_lazy_reduction_fits`,
decided by p and the shape alone) the updates skip ``block %= p``. At
``p = 1_000_003`` that holds up to ``k = 9_223_336``; at
``p = 2^31 - 1`` only up to ``k = 3``.

Overflow safety, pinned by ``tests/kernels/test_modp.py``: when the
lazy bound does not hold, entries stay in ``[0, p)`` after every
update, and the intermediate ``block - outer(factors, pivot_row)`` is
bounded by ``(p-1)^2`` in magnitude. For the largest default prime
``p = 2_147_483_647`` (the Mersenne prime ``2^31 - 1``),
``(p-1)^2 = 2^62 - 2^33 + 4 < 2^63 - 1``, so that reduction fits
signed int64 with headroom; :func:`batched_modp_supported` encodes
exactly that bound and anything larger falls back to the pure-python
reference.

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

#: Largest signed int64; no intermediate may exceed it in magnitude.
_INT64_MAX = 2**63 - 1

#: Rows gathered per update block; bounds the update's temporaries.
_CHUNK_ROWS = 128


def batched_modp_supported(p: int) -> bool:
    """True when the int64 reduction is overflow-safe at prime ``p``.

    The update computes ``a[r][c] - factor * pivot[c]`` with all values
    in ``[0, p)``, so the extreme intermediates are ``-(p-1)^2`` and
    ``p - 1``; both must fit signed 64-bit.
    """
    return HAVE_NUMPY and (p - 1) * (p - 1) + (p - 1) <= _INT64_MAX


def _lazy_reduction_fits(p: int, rows: int, cols: int) -> bool:
    """True when a ``rows x cols`` elimination may skip reducing updates.

    No entry takes more than ``min(rows, cols) - 1`` updates of at most
    ``(p-1)^2`` between two reductions, starting from ``[0, p)`` (see
    the module docstring), so none leaves int64.
    """
    return (min(rows, cols) - 1) * (p - 1) * (p - 1) + (p - 1) <= _INT64_MAX


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
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0
    a = _np.empty((rows, cols), dtype=_np.int64)
    for i, row in enumerate(matrix):
        try:
            a[i] = row  # numpy converts each entry with int()
        except OverflowError:
            a[i] = [int(x) % p for x in row]
    a %= p
    lazy = _lazy_reduction_fits(p, rows, cols)
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        column = a[pivot_row:, col]
        column %= p  # the search and the factors read only this column
        nonzero = _np.flatnonzero(column)
        if not len(nonzero):
            continue
        pivot = pivot_row + int(nonzero[0])
        if pivot != pivot_row:
            a[[pivot_row, pivot]] = a[[pivot, pivot_row]]
        inv = pow(int(a[pivot_row, col]), p - 2, p)
        # rows below the pivot are zero left of ``col``: work on a[:, col:]
        row_p = a[pivot_row, col:]
        row_p %= p
        row_p *= inv
        row_p %= p
        # the swap moved a zero of this column to ``pivot``, so the rows
        # the pivot touches are the other nonzeros found above
        hits = nonzero[1:] + pivot_row
        for start in range(0, len(hits), _CHUNK_ROWS):
            idx = hits[start : start + _CHUNK_ROWS]
            block = a[idx, col:]
            block -= block[:, :1] * row_p
            if not lazy:
                block %= p
            a[idx, col:] = block
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank
