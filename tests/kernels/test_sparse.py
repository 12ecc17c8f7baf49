"""Sparse dict-row mod-p elimination == dense engines, everywhere.

The sparse engine changes the row representation, not the elimination:
the pivot-column order mirrors the reference exactly, so ranks, budget
tick counts, and exhaustion boundaries must agree on every input at
every prime -- including p = 2, which the streamed pipeline also runs
through this engine.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.kernels import (
    HAVE_NUMPY,
    rank_mod_p_sparse,
    rank_mod_p_sparse_rows,
    sparsify_rows,
)
from repro.partitions import (
    DEFAULT_PRIMES,
    build_e_matrix,
    build_m_matrix,
    rank_mod_p,
    streamed_matrix_rank_mod_p,
)
from repro.partitions.linalg import _modp_engine
from repro.resilience import Budget

PRIMES = (2, 3, 97, DEFAULT_PRIMES[0])


class TestSparsifyRows:
    def test_zero_entries_never_stored(self):
        rows = sparsify_rows([[0, 1, 0], [2, 0, 4]], 3)
        assert rows == [{1: 1}, {0: 2, 2: 1}]

    def test_values_reduced_into_range(self):
        rows = sparsify_rows([[-1, 7, 5]], 5)
        assert rows == [{0: 4, 1: 2}]
        assert all(1 <= v < 5 for row in rows for v in row.values())


class TestExhaustiveSmall:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_3x3_matrices_mod_p(self, p):
        for flat in product(range(p), repeat=9):
            matrix = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
                matrix, p, kernel="reference"
            )

    def test_empty_shapes(self):
        assert rank_mod_p_sparse([], 7) == 0
        assert rank_mod_p_sparse_rows([{}], 0, 7) == 0


class TestPaperMatrices:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [2, DEFAULT_PRIMES[0]])
    def test_m_matrix(self, n, p):
        _parts, matrix = build_m_matrix(n)
        assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
            matrix, p, kernel="reference"
        )

    @pytest.mark.parametrize("n", [4, 6])
    def test_e_matrix(self, n):
        _matchings, matrix = build_e_matrix(n)
        for p in (2, DEFAULT_PRIMES[0]):
            assert rank_mod_p_sparse(matrix, p) == rank_mod_p(
                matrix, p, kernel="reference"
            )


class TestModTwoCollapse:
    def test_m4_and_e6_ranks_mod_2(self):
        # rank_2(M_4) = 8 and rank_2(E_6) = 4 of 15: the collapse that
        # keeps every default prime odd
        assert rank_mod_p_sparse(build_m_matrix(4)[1], 2) == 8
        assert rank_mod_p_sparse(build_e_matrix(6)[1], 2) == 4


class TestKernelMode:
    def test_rank_mod_p_dispatch(self):
        # the sparse engine is reached through the streamed pipeline, at
        # every prime; the dense rank_mod_p never routes here
        _parts, matrix = build_m_matrix(4)
        for p in PRIMES:
            assert streamed_matrix_rank_mod_p(4, p, "m") == rank_mod_p(
                matrix, p, kernel="reference"
            )

    def test_legacy_two_argument_dispatch_unchanged(self):
        # dense ranks run numpy-batched at every prime, p = 2 included
        expected = "numpy-batched" if HAVE_NUMPY else "python"
        for p in PRIMES:
            assert _modp_engine(p, "auto") == expected
            assert _modp_engine(p, "reference") == "python"


class TestBudgetParity:
    @pytest.mark.parametrize("p", [2, DEFAULT_PRIMES[0]])
    def test_tick_counts_match_reference(self, p):
        _parts, matrix = build_m_matrix(4)
        b_fast, b_ref = Budget(max_units=10_000), Budget(max_units=10_000)
        assert rank_mod_p_sparse(matrix, p, b_fast) == rank_mod_p(
            matrix, p, b_ref, kernel="reference"
        )
        assert b_fast.units_done == b_ref.units_done

    def test_exhaustion_boundary_matches_reference(self):
        """BudgetExceededError fires at the same mid-elimination unit count."""
        _parts, matrix = build_m_matrix(4)
        for p in (2, DEFAULT_PRIMES[0]):
            probe = Budget(max_units=10_000)
            rank_mod_p_sparse(matrix, p, probe)
            total = probe.units_done
            assert total >= 2
            for cutoff in (1, total // 2, total - 1):
                with pytest.raises(BudgetExceededError):
                    rank_mod_p_sparse(matrix, p, Budget(max_units=cutoff))
                with pytest.raises(BudgetExceededError):
                    rank_mod_p(
                        matrix, p, Budget(max_units=cutoff), kernel="reference"
                    )
            assert rank_mod_p_sparse(
                matrix, p, Budget(max_units=total + 1)
            ) == rank_mod_p(
                matrix, p, Budget(max_units=total + 1), kernel="reference"
            )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(PRIMES),
)
def test_hypothesis_sparse_equals_dense(matrix, p):
    ref = rank_mod_p(matrix, p, kernel="reference")
    assert rank_mod_p_sparse(matrix, p) == ref
    assert rank_mod_p(matrix, p, kernel="auto") == ref
