"""Exact rank computation for 0/1 matrices.

The lower bounds of Section 4 need the rank over the rationals of the
Partition matrices M_n and E_n (Theorem 2.3, Lemma 4.1). Two engines are
provided and cross-checked in the tests:

* :func:`rank_bareiss` -- fraction-free integer Gaussian elimination
  (Bareiss), exact over the rationals, O(d^3) big-integer work; fine up to
  a few hundred rows.
* :func:`rank_mod_p` -- Gaussian elimination over GF(p). For any prime p,
  rank_p(A) <= rank_Q(A); therefore a *full* mod-p rank certifies full
  rational rank, which is exactly the direction Theorem 2.3 / Lemma 4.1
  need. (Mod-2 full rank would certify too, but M_n and E_n are *far*
  from full rank mod 2: rank_2(M_4) = 8 of 15, rank_2(E_6) = 4 of 15 --
  so the default primes are all odd and large.)

:func:`rank_exact` combines them: full mod-p rank short-circuits with a
certificate; otherwise Bareiss settles the exact value (or mod-p ranks at
several primes are taken, whose maximum lower-bounds the rational rank).

Every entry point takes ``kernel`` (``auto`` | ``reference``, see
:mod:`repro.kernels`). ``rank_mod_p`` has two engines for a dense
matrix, chosen by :func:`_modp_engine`: the batched numpy int64
elimination for matrices of at least :data:`BATCHED_MIN_ROWS` rows,
and the pure-python reference, which runs below that size, under
``kernel="reference"``, without numpy, and at primes whose
``(p-1)^2`` overflows int64. Both are bit-identical: the rank over a
fixed field is mathematically determined, and each engine ticks the
:class:`~repro.resilience.Budget` once per pivot column under the same
pivot structure, so budget boundaries and span trees are unchanged.
Every M_n / E_n rank of :mod:`repro.partitions.matrices` runs
:func:`rank_exact` on the dense matrix: a uint8 array decoded straight
from the row masks when :func:`rank_reads_arrays` (the batched engine
runs), the list of lists otherwise. Every engine reads an entry
through ``int()``, so both forms give the same ranks and ticks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.kernels import batched_modp_supported, rank_mod_p_batched, resolve_kernel
from repro.obs.spans import span

if TYPE_CHECKING:  # import-free at runtime: linalg stays dependency-light
    from repro.resilience.budget import Budget

Matrix = Sequence[Sequence[int]]

#: Primes used for multi-prime rank estimation.
DEFAULT_PRIMES = (1_000_003, 999_983, 2_147_483_647)


def _shape(matrix: Matrix) -> tuple:
    """(rows, cols) of a possibly-empty sequence-of-sequences matrix."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return rows, cols


def rank_bareiss(matrix: Matrix, budget: Optional["Budget"] = None) -> int:
    """Exact rational rank via fraction-free (Bareiss) elimination.

    ``budget`` (a :class:`repro.resilience.Budget`) is ticked once per
    pivot column -- the natural unit of Bareiss work -- so runaway
    big-integer eliminations can be bounded; exhaustion raises
    :class:`~repro.errors.BudgetExceededError` (no partial: a half-done
    elimination certifies nothing).
    """
    rows_, cols_ = _shape(matrix)
    with span("partitions.rank_bareiss", rows=rows_, cols=cols_, engine="bareiss"):
        return _rank_bareiss_impl(matrix, budget)


def _rank_bareiss_impl(matrix: Matrix, budget: Optional["Budget"] = None) -> int:
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    prev_pivot = 1
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        # find a pivot at or below pivot_row
        pivot = None
        for r in range(pivot_row, rows):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        p = a[pivot_row][col]
        for r in range(pivot_row + 1, rows):
            for c in range(col + 1, cols):
                a[r][c] = (a[r][c] * p - a[r][col] * a[pivot_row][c]) // prev_pivot
            a[r][col] = 0
        prev_pivot = p
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def _rank_mod_p_python(
    matrix: Matrix, p: int, budget: Optional["Budget"] = None
) -> int:
    a = [[int(x) % p for x in row] for row in matrix]
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if budget is not None:
            budget.tick()
        pivot = None
        for r in range(pivot_row, rows):
            if a[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        inv = pow(a[pivot_row][col], p - 2, p)
        row_p = [(x * inv) % p for x in a[pivot_row]]
        a[pivot_row] = row_p
        for r in range(pivot_row + 1, rows):
            factor = a[r][col]
            if factor:
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], row_p)]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


#: ``kernel="auto"`` ranks a matrix of fewer rows with the pure-python
#: reference, which never loads numpy. EXPERIMENTS.md P29 times both
#: engines with numpy already imported: below 16 rows the reference is
#: the faster one on every 0/1 matrix measured (M_4: 0.13 against
#: 0.21 ms), and the batched engine wins from 18 rows on random 0/1
#: matrices and from ~32 on M_n / E_n prefixes. Random residues mod p
#: cross at ~12 rows (up to 0.06 ms lost at 12-15 rows; every matrix the
#: program ranks is 0/1), so the constant is the smallest one that takes
#: the paper's 15-row M_4 and E_6 off numpy.
BATCHED_MIN_ROWS = 16


def _modp_engine(p: int, kernel: str, rows: int) -> str:
    """The engine a (p, kernel, row count) combination dispatches to.

    Each branch cites its rows of the crossover tables in EXPERIMENTS.md
    P12 and P29 (engine x matrix family x size).
    """
    if resolve_kernel(kernel) == "reference" or rows < BATCHED_MIN_ROWS:
        return "python"
    if batched_modp_supported(p):
        # P29: from M_5 (52 rows) on, numpy-batched is 2.3x (M_5) to
        # 8x (E_8) faster than python; P12 for the larger sizes.
        return "numpy-batched"
    # P12 numpy-blocked rows: python is the reference itself.
    return "python"


def rank_reads_arrays(kernel: str, rows: int) -> bool:
    """True when :func:`rank_exact` at its default primes starts batched.

    Its first elimination then copies the rows into a numpy int64 array,
    so a caller building a ``rows``-row matrix only to rank it may hand
    over a numpy array; the pure-python engines read a list of lists
    fastest.
    """
    return _modp_engine(DEFAULT_PRIMES[0], kernel, rows) == "numpy-batched"


def rank_mod_p(
    matrix: Matrix,
    p: int,
    budget: Optional["Budget"] = None,
    kernel: str = "auto",
) -> int:
    """Rank over GF(p). Always a lower bound on the rational rank.

    ``kernel="auto"`` runs the batched numpy int64 elimination on a
    matrix of at least :data:`BATCHED_MIN_ROWS` rows at every prime whose
    ``(p-1)^2`` fits int64 (every default prime qualifies, including the
    Mersenne prime ``2^31 - 1`` -- pinned by the overflow regression
    tests -- and so does p = 2); a smaller matrix, any other prime,
    numpy's absence, or ``kernel="reference"`` runs the pure-python
    reference. Both engines return the same rank and tick ``budget``
    once per pivot column (see :func:`rank_bareiss`).
    """
    rows_, cols_ = _shape(matrix)
    engine = _modp_engine(p, kernel, rows_)
    with span("partitions.rank_mod_p", rows=rows_, cols=cols_, p=p, engine=engine):
        if engine == "numpy-batched":
            return rank_mod_p_batched(matrix, p, budget)
        return _rank_mod_p_python(matrix, p, budget)


def rank_multi_prime(
    matrix: Matrix,
    primes: Sequence[int] = DEFAULT_PRIMES,
    budget: Optional["Budget"] = None,
    kernel: str = "auto",
) -> int:
    """Max of the mod-p ranks over ``primes`` -- a certified lower bound.

    The primes are eliminated one after another, each ticking ``budget``
    once per pivot column; exhaustion raises
    :class:`~repro.errors.BudgetExceededError` (no partial: an
    unfinished elimination certifies nothing).
    """
    rows_, cols_ = _shape(matrix)
    if not primes or rows_ == 0 or cols_ == 0:
        return 0
    return max(rank_mod_p(matrix, p, budget, kernel=kernel) for p in primes)


def rank_exact(
    matrix: Matrix,
    primes: Sequence[int] = DEFAULT_PRIMES,
    budget: Optional["Budget"] = None,
    kernel: str = "auto",
) -> int:
    """Exact rational rank of an integer matrix.

    Full rank mod any prime certifies full rational rank (the determinant
    is nonzero mod p, hence nonzero). Otherwise Bareiss settles it exactly
    for matrices up to a few hundred rows; above that the maximum mod-p
    rank over several primes is returned, which fails to be exact only if
    every listed prime divides the relevant determinantal minors.
    ``kernel`` selects the mod-p engines (see :func:`rank_mod_p`); the
    chain, the budget tick boundaries, and the returned value are
    identical under every kernel.
    """
    rows = len(matrix)
    if rows == 0:
        return 0
    dim = min(rows, len(matrix[0]))
    with span("partitions.rank_exact", rows=rows, cols=len(matrix[0])):
        first = rank_mod_p(matrix, primes[0], budget, kernel=kernel)
        if first == dim:
            return first
        if rows <= 220:
            return rank_bareiss(matrix, budget)
        return max(first, rank_multi_prime(matrix, primes[1:], budget, kernel=kernel))


def is_full_rank(
    matrix: Matrix, p: int = DEFAULT_PRIMES[0], kernel: str = "auto"
) -> bool:
    """Certificate of full rational rank via a single mod-p elimination."""
    rows = len(matrix)
    if rows == 0:
        return True
    dim = min(rows, len(matrix[0]))
    return rank_mod_p(matrix, p, kernel=kernel) == dim
