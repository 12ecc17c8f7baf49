"""Batched mod-p elimination: identity with the reference and int64 safety.

p = 2 rides along as one more prime: the batched engine runs there
too, so the mod-2 collapse of the paper's matrices is pinned for both
engines here. ``kernel="auto"`` picks the engine by row count
(``linalg.BATCHED_MIN_ROWS``); the boundary suite pins both sides of it.
"""

import math
import random
import tracemalloc
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.kernels import (
    HAVE_NUMPY,
    KERNEL_MODES,
    batched_modp_supported,
    rank_mod_p_batched,
)
from repro.kernels import modp
from repro.kernels.modp import _CHUNK_ROWS, _lazy_reduction_fits
from repro.partitions import (
    DEFAULT_PRIMES,
    bell_number,
    build_e_matrix,
    build_m_matrix,
    matchings_for,
    partition_matrix,
    partitions_for,
    rank_bareiss,
    rank_exact,
    rank_mod_p,
)
from repro.partitions.linalg import (
    BATCHED_MIN_ROWS,
    _modp_engine,
    _rank_mod_p_python,
    rank_reads_arrays,
)
from repro.partitions.matrices import _rank_rows
from repro.resilience import Budget

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")

#: The Mersenne prime 2^31 - 1 -- the largest default prime and the
#: worst case the int64 reduction must survive: (p-1)^2 = 2^62 - 2^33 + 4.
MERSENNE = 2_147_483_647

#: The primes of the identity suites: p = 2 plus the default primes.
PRIMES = (2, *DEFAULT_PRIMES)


def _ticked(engine, matrix, p):
    budget = Budget(max_units=10**6)
    return engine(matrix, p, budget), budget.units_done


def _assert_engines_agree(matrix, p):
    """Rank under both kernel modes and, with numpy, the batched engine.

    ``auto`` ranks a matrix below ``BATCHED_MIN_ROWS`` rows with the
    reference, so small matrices reach the batched engine only directly.
    """
    ref = rank_mod_p(matrix, p, kernel="reference")
    assert rank_mod_p(matrix, p, kernel="auto") == ref
    if batched_modp_supported(p):
        assert rank_mod_p_batched(matrix, p) == ref
    return ref


class TestSupportBound:
    def test_all_default_primes_supported_iff_numpy(self):
        for p in DEFAULT_PRIMES:
            assert batched_modp_supported(p) == HAVE_NUMPY

    def test_mersenne_is_a_default_prime(self):
        assert MERSENNE in DEFAULT_PRIMES

    def test_oversized_prime_unsupported(self):
        # (p-1)^2 alone overflows int64 once p - 1 > ~3.04e9
        assert not batched_modp_supported(2**32 + 15)

    @needs_numpy
    def test_batched_raises_on_unsupported_prime(self):
        with pytest.raises(RuntimeError):
            rank_mod_p_batched([[1]], 2**32 + 15)


@needs_numpy
class TestOverflowSafetyAtMersenne:
    """Max-residue matrices at p = 2^31 - 1: every intermediate is extremal."""

    def test_all_max_residue_rank_one(self):
        p = MERSENNE
        matrix = [[p - 1] * 4 for _ in range(4)]
        assert rank_mod_p_batched(matrix, p) == 1
        assert rank_mod_p(matrix, p, kernel="reference") == 1
        assert rank_bareiss(matrix) == 1

    def test_max_residue_diagonal_full_rank(self):
        p = MERSENNE
        matrix = [[p - 1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert rank_mod_p_batched(matrix, p) == 3
        assert rank_mod_p(matrix, p, kernel="reference") == 3
        assert rank_bareiss(matrix) == 3

    def test_entries_beyond_int64_reduce_like_the_reference(self):
        # rows numpy cannot hold are reduced in Python before the fill
        p = MERSENNE
        matrix = [[2**70 + 3, -(2**80), 1], [5, 2**64, -7], [1, 2, 3]]
        assert rank_mod_p_batched(matrix, p) == _rank_mod_p_python(matrix, p)
        # both big entries are 1 mod p, so the rank is 1 only if the
        # reduction is exact
        ones = [(2**40 + 3) * p + 1, -(2**41) * p + 1]
        assert rank_mod_p_batched([ones, [1, 1]], p) == 1

    def test_adversarial_update_hits_p_minus_1_squared(self):
        # eliminating row 2 computes 0 - (p-1) * inv(p-1)*(p-1) terms:
        # the raw outer-product intermediate is exactly -(p-1)^2.
        p = MERSENNE
        matrix = [[p - 1, p - 1], [p - 1, 0]]
        # det = -(p-1)^2 = -(p^2 - 2p + 1) == -1 (mod p): full rank both ways
        assert rank_mod_p_batched(matrix, p) == 2
        assert rank_mod_p(matrix, p, kernel="reference") == 2
        assert rank_bareiss(matrix) == 2


@needs_numpy
class TestChunkedUpdate:
    """Inputs whose first pivot touches more than ``_CHUNK_ROWS`` rows,
    so the row-gather loop runs over several chunks."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_m6_rank_and_ticks_equal_reference(self, p):
        _parts, matrix = build_m_matrix(6)
        # column 0 of M_n is all ones: the first pivot spans two chunks
        assert len(matrix) - 1 > _CHUNK_ROWS
        assert all(row[0] == 1 for row in matrix)
        fast = _ticked(rank_mod_p_batched, matrix, p)
        assert fast == _ticked(_rank_mod_p_python, matrix, p)
        if p != 2:
            assert fast[0] == bell_number(6)

    @pytest.mark.parametrize("p", [2, 3, 1_000_003, MERSENNE])
    def test_seeded_300x300_equals_reference(self, p):
        rng = random.Random(17)
        matrix = [
            [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(299)]
            for _ in range(300)
        ]
        assert _ticked(rank_mod_p_batched, matrix, p) == _ticked(
            _rank_mod_p_python, matrix, p
        )

    def test_m6_budget_boundary_equals_reference(self):
        _parts, matrix = build_m_matrix(6)
        p = DEFAULT_PRIMES[0]
        _rank, units = _ticked(rank_mod_p_batched, matrix, p)
        # a budget raises once its count reaches max_units: the run's
        # unit count is the cutoff, one more completes -- for the list
        # and for the uint8 rows the rank functions decode
        for rows in (matrix, _rank_rows(partitions_for(6), "auto")):
            for engine in (rank_mod_p_batched, _rank_mod_p_python):
                with pytest.raises(BudgetExceededError):
                    engine(rows, p, Budget(max_units=units))
                assert engine(rows, p, Budget(max_units=units + 1)) == bell_number(6)

    def test_every_chunk_holds_the_extreme_intermediate(self):
        # the pivot row [1, p-1, 0] stays as is; each row [p-1, 0, 1] has
        # factor p-1, so its middle entry is computed as 0 - (p-1)^2 in
        # every chunk. The last row equals the correct reduced row
        # [0, p-1, 1], so a wrapped value would show as rank 3.
        p = MERSENNE
        matrix = (
            [[1, p - 1, 0]]
            + [[p - 1, 0, 1]] * (2 * _CHUNK_ROWS + 43)
            + [[0, p - 1, 1]]
        )
        assert rank_mod_p_batched(matrix, p) == 2
        assert _rank_mod_p_python(matrix, p) == 2


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _lazy_boundary_primes(k):
    """The largest prime whose k x k elimination may skip reductions,
    and the next prime above it."""
    top = math.isqrt((2**63 - 1) // (k - 1)) + 1
    while not _lazy_reduction_fits(top, k, k):
        top -= 1
    below = next(q for q in range(top, 1, -1) if _is_prime(q))
    above = next(q for q in count(below + 1) if _is_prime(q))
    return below, above


def _worst_case(p, k, scale=1):
    """L·U mod p, rank k - 1, whose elimination subtracts the full
    (p-1)^2 at almost every update.

    L is unit lower triangular with p-1 below the diagonal, U upper
    triangular with p-1 above the diagonal, ``scale`` at (k-2, k-2), 0
    at (k-1, k-1) and 1 elsewhere on it. Every pivot sits on the
    diagonal, so no row swaps; with ``scale`` 1 every factor is p-1 and
    every normalized pivot-row entry right of the pivot is p-1, so
    entry (k-1, k-1) takes k-1 updates of (p-1)^2 before it is read. It
    is 0 mod p, so an int64 wrap anywhere on the way shows as rank k.
    """
    low = [
        [1 if i == j else (p - 1 if j < i else 0) for j in range(k)]
        for i in range(k)
    ]
    diagonal = [1] * (k - 2) + [scale, 0]
    up = [
        [diagonal[i] if i == j else (p - 1 if j > i else 0) for j in range(k)]
        for i in range(k)
    ]
    return [
        [sum(low[i][m] * up[m][j] for m in range(k)) % p for j in range(k)]
        for i in range(k)
    ]


@needs_numpy
class TestLazyReductionBoundary:
    """The largest prime that skips the per-update reduction and the
    next prime above it, on the worst-case matrix of each."""

    K = 8

    def test_boundary_primes_straddle_the_bound(self):
        below, above = _lazy_boundary_primes(self.K)
        assert _lazy_reduction_fits(below, self.K, self.K)
        assert not _lazy_reduction_fits(above, self.K, self.K)
        assert batched_modp_supported(below) and batched_modp_supported(above)

    @pytest.mark.parametrize("side", ["lazy", "eager"])
    def test_worst_case_equals_reference(self, side):
        p = _lazy_boundary_primes(self.K)[side == "eager"]
        matrix = _worst_case(p, self.K)
        expected = (self.K - 1, self.K)  # rank, one tick per column
        assert _ticked(_rank_mod_p_python, matrix, p) == expected
        assert _ticked(rank_mod_p_batched, matrix, p) == expected

    def test_skipping_past_the_bound_would_wrap(self, monkeypatch):
        # the worst case is tight: one prime past the bound, skipping the
        # reductions wraps entry (k-1, k-1) and the rank comes out wrong
        p = _lazy_boundary_primes(self.K)[1]
        monkeypatch.setattr(modp, "_lazy_reduction_fits", lambda *_shape: True)
        assert rank_mod_p_batched(_worst_case(p, self.K), p) == self.K

    def test_pivot_row_is_reduced_before_it_is_scaled(self):
        # at 1_000_003 the 24 x 24 case skips reductions; row 22 carries
        # 22 updates of (p-1)^2 ~ 2.2e13 into its pivot step, where the
        # inverse of 2 is 500_002: scaling it unreduced would wrap
        p, k = DEFAULT_PRIMES[0], 24
        matrix = _worst_case(p, k, scale=2)
        assert _lazy_reduction_fits(p, k, k)
        assert _ticked(rank_mod_p_batched, matrix, p) == (k - 1, k)
        assert _ticked(_rank_mod_p_python, matrix, p) == (k - 1, k)

    def test_lazy_on_the_paper_matrices(self):
        # the default prime skips it on M_8; 2^31 - 1 only up to 3 x 3
        assert _lazy_reduction_fits(DEFAULT_PRIMES[0], 4140, 4140)
        assert _lazy_reduction_fits(MERSENNE, 3, 3)
        assert not _lazy_reduction_fits(MERSENNE, 4, 4)


@needs_numpy
def test_peak_memory_stays_near_the_array():
    """Temporaries are two chunk-sized blocks, not a trailing-submatrix
    outer product: on M_7 the traced peak inside the call stays within
    1.5x the int64 array itself."""
    _parts, matrix = build_m_matrix(7)
    nbytes = len(matrix) * len(matrix[0]) * 8
    tracemalloc.start()
    try:
        rank = rank_mod_p_batched(matrix, DEFAULT_PRIMES[0])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == len(matrix) == 877
    assert peak <= 1.5 * nbytes


class TestExhaustiveSmall:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_3x3_matrices_mod_p(self, p):
        for flat in product(range(p), repeat=9):
            matrix = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            _assert_engines_agree(matrix, p)


class TestEngineIdentity:
    @pytest.mark.parametrize("p", PRIMES)
    def test_m3_matrix_all_engines(self, p):
        _parts, matrix = build_m_matrix(3)
        ref = rank_mod_p(matrix, p, kernel="reference")
        assert rank_mod_p(matrix, p, kernel="auto") == ref
        if batched_modp_supported(p):
            assert rank_mod_p_batched(matrix, p) == ref

    def test_empty_matrix(self):
        for p in PRIMES:
            assert rank_mod_p([], p, kernel="auto") == 0

    def test_dispatch_by_mode(self):
        # from BATCHED_MIN_ROWS rows, ranks run numpy-batched at every
        # prime, p = 2 included; below it, and under reference, python
        expected = "numpy-batched" if HAVE_NUMPY else "python"
        for p in PRIMES:
            assert _modp_engine(p, "auto", BATCHED_MIN_ROWS) == expected
            assert _modp_engine(p, "auto", 877) == expected
            assert _modp_engine(p, "auto", BATCHED_MIN_ROWS - 1) == "python"
            assert _modp_engine(p, "auto", 0) == "python"
            assert _modp_engine(p, "reference", 877) == "python"
        # the paper ranks hand over a numpy array exactly when batched runs
        assert rank_reads_arrays("auto", BATCHED_MIN_ROWS) == HAVE_NUMPY
        assert not rank_reads_arrays("auto", BATCHED_MIN_ROWS - 1)
        assert not rank_reads_arrays("reference", 877)


def _boundary_matrix(family, rows):
    """A ``rows x rows`` matrix of ``family``, seeded by its size."""
    if family == "M":
        return partition_matrix(partitions_for(6)[:rows])
    if family == "E":
        return partition_matrix(matchings_for(8)[:rows])
    rng = random.Random(rows)
    p = DEFAULT_PRIMES[0]
    return [[rng.randrange(p) for _ in range(rows)] for _ in range(rows)]


def _outcome(rank, matrix, p, max_units, **kwargs):
    """The rank, or ``None`` when ``Budget(max_units)`` runs out first."""
    try:
        return rank(matrix, p, Budget(max_units=max_units), **kwargs)
    except BudgetExceededError:
        return None


class TestCrossoverBoundary:
    """``auto`` changes engine at ``BATCHED_MIN_ROWS`` rows and nothing
    else: the same rank and the same budget cutoff on either side."""

    @pytest.mark.parametrize("family", ["M", "E", "dense"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_auto_equals_reference_at_the_crossover(self, family, offset):
        rows = BATCHED_MIN_ROWS + offset
        matrix = _boundary_matrix(family, rows)
        assert len(matrix) == rows
        p = DEFAULT_PRIMES[0]
        batched = offset >= 0 and HAVE_NUMPY
        expected = "numpy-batched" if batched else "python"
        assert _modp_engine(p, "auto", rows) == expected
        assert rank_reads_arrays("auto", rows) == batched
        ref, units = _ticked(_rank_mod_p_python, matrix, p)
        assert rank_mod_p(matrix, p, kernel="auto") == ref
        assert rank_exact(matrix, kernel="auto") == rank_exact(
            matrix, kernel="reference"
        )
        if HAVE_NUMPY:
            assert _ticked(rank_mod_p_batched, matrix, p) == (ref, units)
        # a budget of k units raises at the same tick under every engine:
        # every k up to the run's unit count raises, one more completes
        for max_units in range(1, units + 2):
            want = ref if max_units > units else None
            for kernel in KERNEL_MODES:
                assert _outcome(rank_mod_p, matrix, p, max_units, kernel=kernel) == want
            if HAVE_NUMPY:
                assert _outcome(rank_mod_p_batched, matrix, p, max_units) == want


class TestModTwoCollapse:
    """M_n and E_n are far from full rank mod 2 -- why every default
    prime is odd. Pin the collapse so nobody "optimizes" it away."""

    def test_m4_rank_is_8_of_15(self):
        _parts, matrix = build_m_matrix(4)
        assert len(matrix) == 15
        assert _assert_engines_agree(matrix, 2) == 8

    def test_e6_rank_is_4_of_15(self):
        _matchings, matrix = build_e_matrix(6)
        assert len(matrix) == 15
        assert _assert_engines_agree(matrix, 2) == 4


@needs_numpy
class TestBudgetParity:
    def test_tick_counts_match_reference(self):
        _parts, matrix = build_m_matrix(3)
        for p in (2, DEFAULT_PRIMES[0]):
            b_fast, b_ref = Budget(max_units=10_000), Budget(max_units=10_000)
            assert rank_mod_p_batched(matrix, p, b_fast) == rank_mod_p(
                matrix, p, b_ref, kernel="reference"
            )
            assert b_fast.units_done == b_ref.units_done

    def test_exhaustion_boundary_matches_reference(self):
        _parts, matrix = build_m_matrix(3)
        for p in (2, DEFAULT_PRIMES[0]):
            probe = Budget(max_units=10_000)
            rank_mod_p_batched(matrix, p, probe)
            cutoff = probe.units_done - 1
            assert cutoff >= 1
            with pytest.raises(BudgetExceededError):
                rank_mod_p_batched(matrix, p, Budget(max_units=cutoff))
            with pytest.raises(BudgetExceededError):
                rank_mod_p(matrix, p, Budget(max_units=cutoff), kernel="reference")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(PRIMES),
)
def test_hypothesis_packed_equals_reference(matrix, p):
    _assert_engines_agree(matrix, p)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from([0, 1, MERSENNE - 1, MERSENNE - 2]),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_hypothesis_max_residue_entries_at_mersenne(matrix):
    """Entries at the top of the residue range never corrupt the batch."""
    _assert_engines_agree(matrix, MERSENNE)
