"""Batched mod-p elimination: identity with the reference and int64 safety.

p = 2 rides along as one more prime: ``rank_mod_p`` runs the batched
engine there too, so the mod-2 collapse of the paper's matrices is
pinned here.
"""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.kernels import HAVE_NUMPY, batched_modp_supported, rank_mod_p_batched
from repro.kernels.modp import _CHUNK_ROWS
from repro.partitions import (
    DEFAULT_PRIMES,
    bell_number,
    build_e_matrix,
    build_m_matrix,
    rank_bareiss,
    rank_exact,
    rank_mod_p,
    rank_multi_prime,
)
from repro.partitions.linalg import _rank_mod_p_python
from repro.resilience import Budget

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")

#: The Mersenne prime 2^31 - 1 -- the largest default prime and the
#: worst case the int64 reduction must survive: (p-1)^2 = 2^62 - 2^33 + 4.
MERSENNE = 2_147_483_647

#: The primes of the identity suites: p = 2 plus the default primes.
PRIMES = (2, *DEFAULT_PRIMES)


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

    @staticmethod
    def _ticked(engine, matrix, p):
        budget = Budget(max_units=10**6)
        return engine(matrix, p, budget), budget.units_done

    @pytest.mark.parametrize("p", PRIMES)
    def test_m6_rank_and_ticks_equal_reference(self, p):
        _parts, matrix = build_m_matrix(6)
        # column 0 of M_n is all ones: the first pivot spans two chunks
        assert len(matrix) - 1 > _CHUNK_ROWS
        assert all(row[0] == 1 for row in matrix)
        fast = self._ticked(rank_mod_p_batched, matrix, p)
        assert fast == self._ticked(_rank_mod_p_python, matrix, p)
        if p != 2:
            assert fast[0] == bell_number(6)

    @pytest.mark.parametrize("p", [2, 3, 1_000_003, MERSENNE])
    def test_seeded_300x300_equals_reference(self, p):
        rng = random.Random(17)
        matrix = [
            [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(299)]
            for _ in range(300)
        ]
        assert self._ticked(rank_mod_p_batched, matrix, p) == self._ticked(
            _rank_mod_p_python, matrix, p
        )

    def test_m6_budget_boundary_equals_reference(self):
        _parts, matrix = build_m_matrix(6)
        p = DEFAULT_PRIMES[0]
        _rank, units = self._ticked(rank_mod_p_batched, matrix, p)
        # a budget raises once its count reaches max_units: the run's
        # unit count is the cutoff, one more completes
        for engine in (rank_mod_p_batched, _rank_mod_p_python):
            with pytest.raises(BudgetExceededError):
                engine(matrix, p, Budget(max_units=units))
            assert engine(matrix, p, Budget(max_units=units + 1)) == bell_number(6)

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
            assert rank_mod_p(matrix, p, kernel="auto") == rank_mod_p(
                matrix, p, kernel="reference"
            )


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


class TestModTwoCollapse:
    """M_n and E_n are far from full rank mod 2 -- why every default
    prime is odd. Pin the collapse so nobody "optimizes" it away."""

    def test_m4_rank_is_8_of_15(self):
        _parts, matrix = build_m_matrix(4)
        assert len(matrix) == 15
        for kernel in ("auto", "reference"):
            assert rank_mod_p(matrix, 2, kernel=kernel) == 8

    def test_e6_rank_is_4_of_15(self):
        _matchings, matrix = build_e_matrix(6)
        assert len(matrix) == 15
        for kernel in ("auto", "reference"):
            assert rank_mod_p(matrix, 2, kernel=kernel) == 4


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


class TestWorkersTimesKernels:
    """The PR 4 contract extended: any workers x either kernel, same number."""

    def test_rank_exact_packed_workers_equals_serial_reference(self):
        _parts, matrix = build_m_matrix(4)
        serial_ref = rank_exact(matrix, workers=1, kernel="reference")
        assert rank_exact(matrix, workers=2, kernel="auto") == serial_ref
        assert rank_exact(matrix, workers=2, kernel="reference") == serial_ref
        assert rank_exact(matrix, workers=1, kernel="auto") == serial_ref

    def test_rank_multi_prime_packed_workers_equals_serial_reference(self):
        _parts, matrix = build_m_matrix(3)
        serial_ref = rank_multi_prime(matrix, workers=1, kernel="reference")
        assert rank_multi_prime(matrix, workers=2, kernel="auto") == serial_ref


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
    assert rank_mod_p(matrix, p, kernel="auto") == rank_mod_p(
        matrix, p, kernel="reference"
    )


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
    assert rank_mod_p(matrix, MERSENNE, kernel="auto") == rank_mod_p(
        matrix, MERSENNE, kernel="reference"
    )
