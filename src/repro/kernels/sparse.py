"""Sparse mod-p rank kernel: dict-of-columns rows, reference pivot order.

The dense engines (:mod:`repro.kernels.modp`, the python reference in
:mod:`repro.partitions.linalg`) skip the rows a pivot does not touch but
store and update every cell of the rows it does. This engine is the one
the streamed M_n / E_n pipeline
(:func:`repro.partitions.streamed_matrix_rank_mod_p`, ``ranks
--streamed on``) runs at every prime, p = 2 included: its rows arrive
as column-index lists and are never materialized densely, which is
what lets the streamed pipeline reach matrices the dense one cannot
hold. It is not the faster engine on a matrix that fits: the batched
numpy engine wins every family of the crossover table, M_n included
(EXPERIMENTS.md P12), so the dense ``rank_mod_p`` never routes here.

Rows are dicts ``{column: value}`` with every stored value in ``[1, p)``
-- zeros are never stored, which is both the space saving and the O(1)
pivot test (``col in row``). The column loop mirrors the reference
elimination exactly: tick the budget once per pivot column before the
pivot search, take the first row at or below the current pivot row with
a nonzero in that column, swap, normalize, eliminate below, and break
once ``rows`` pivots are found. Ranks, tick counts, and exhaustion
boundaries equal the reference's on every input (pinned by the
hypothesis identity suites).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

Matrix = Sequence[Sequence[int]]

__all__ = ["rank_mod_p_sparse", "rank_mod_p_sparse_rows", "sparsify_rows"]


def sparsify_rows(matrix: Matrix, p: int) -> List[Dict[int, int]]:
    """Reduce a matrix mod ``p`` into dict rows ``{col: value in [1, p)}``."""
    rows: List[Dict[int, int]] = []
    for row in matrix:
        entries: Dict[int, int] = {}
        for c, x in enumerate(row):
            v = int(x) % p
            if v:
                entries[c] = v
        rows.append(entries)
    return rows


def rank_mod_p_sparse_rows(
    rows: List[Dict[int, int]],
    cols: int,
    p: int,
    budget: Optional["Budget"] = None,
) -> int:
    """Rank mod ``p`` of already-sparsified rows (destructive on ``rows``).

    Requires the :func:`sparsify_rows` invariant: every stored value in
    ``[1, p)``, zeros absent. Works for every prime ``p`` including 2
    (``pow(x, p - 2, p)`` is the inverse there too).
    """
    nrows = len(rows)
    if nrows == 0 or cols == 0:
        return 0
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        pivot = None
        for r in range(pivot_row, nrows):
            if col in rows[r]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        prow = rows[pivot_row]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            for c in prow:
                prow[c] = (prow[c] * inv) % p
        pivot_items = list(prow.items())
        for r in range(pivot_row + 1, nrows):
            row = rows[r]
            factor = row.get(col)
            if factor:
                for c, v in pivot_items:
                    nv = (row.get(c, 0) - factor * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        pivot_row += 1
        rank += 1
        if pivot_row == nrows:
            break
    return rank


def rank_mod_p_sparse(
    matrix: Matrix, p: int, budget: Optional["Budget"] = None
) -> int:
    """Rank of an integer matrix mod prime ``p`` via the sparse engine."""
    nrows = len(matrix)
    cols = len(matrix[0]) if nrows else 0
    return rank_mod_p_sparse_rows(sparsify_rows(matrix, p), cols, p, budget)
