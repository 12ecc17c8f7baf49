"""Tests for exact rank machinery and the M_n / E_n theorems."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.partitions import (
    bell_number,
    build_e_matrix,
    build_m_matrix,
    clear_enumeration_cache,
    e_matrix_is_full_rank,
    e_matrix_rank,
    is_full_rank,
    m_matrix_is_full_rank,
    m_matrix_rank,
    matchings_for,
    partition_cc_lower_bound,
    partitions_for,
    perfect_matching_count,
    rank_bareiss,
    rank_exact,
    rank_mod_p,
    two_partition_cc_lower_bound,
)


class TestRankEngines:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert rank_bareiss(eye) == 5
        assert rank_mod_p(eye, 1_000_003) == 5
        assert rank_exact(eye) == 5

    def test_zero_matrix(self):
        z = [[0] * 4 for _ in range(4)]
        assert rank_bareiss(z) == 0
        assert rank_mod_p(z, 1_000_003) == 0

    def test_rank_deficient(self):
        m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert rank_bareiss(m) == 2
        assert rank_exact(m) == 2

    def test_rectangular(self):
        m = [[1, 0, 0, 1], [0, 1, 0, 1]]
        assert rank_bareiss(m) == 2
        assert rank_mod_p(m, 1_000_003) == 2

    def test_empty(self):
        assert rank_bareiss([]) == 0
        assert rank_exact([]) == 0

    def test_mod_p_char_trap(self):
        """A matrix singular mod p but not over Q: rank_exact must recover."""
        p = 7
        m = [[p, 0], [0, 1]]
        assert rank_mod_p(m, p) == 1
        assert rank_bareiss(m) == 2
        assert rank_exact(m, primes=(7, 1_000_003)) == 2

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bareiss_agrees_with_mod_p(self, rows):
        exact = rank_bareiss(rows)
        modular = rank_mod_p(rows, 1_000_003)
        assert modular <= exact
        # with entries this small, a million-ish prime never loses rank
        assert modular == exact

    def test_is_full_rank(self):
        assert is_full_rank([[1, 0], [1, 1]])
        assert not is_full_rank([[1, 1], [1, 1]])


class TestTheorem23:
    """rank(M_n) = B_n (Dowling-Wilson / Theorem 2.3)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_m_rank_equals_bell(self, n):
        assert m_matrix_rank(n) == bell_number(n)

    def test_m6_full_rank_certificate(self):
        assert m_matrix_is_full_rank(6)

    def test_m_matrix_symmetric(self):
        _, m = build_m_matrix(4)
        for i in range(len(m)):
            for j in range(len(m)):
                assert m[i][j] == m[j][i]

    def test_m_matrix_top_row(self):
        parts, m = build_m_matrix(4)
        top_index = next(i for i, p in enumerate(parts) if p.is_coarsest())
        assert all(m[top_index][j] == 1 for j in range(len(parts)))

    def test_m_matrix_bottom_row(self):
        parts, m = build_m_matrix(4)
        bottom = next(i for i, p in enumerate(parts) if p.is_finest())
        top = next(i for i, p in enumerate(parts) if p.is_coarsest())
        for j in range(len(parts)):
            assert m[bottom][j] == (1 if j == top else 0)


class TestLemma41:
    """rank(E_n) = n!/(2^{n/2} (n/2)!)."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_e_rank_exact(self, n):
        assert e_matrix_rank(n) == perfect_matching_count(n)

    def test_e8_full_rank_certificate(self):
        assert e_matrix_is_full_rank(8)

    def test_e_is_submatrix_of_m(self):
        from repro.partitions import enumerate_partitions, joins_to_top

        matchings, e = build_e_matrix(4)
        for i, pa in enumerate(matchings):
            for j, pb in enumerate(matchings):
                assert e[i][j] == (1 if joins_to_top(pa, pb) else 0)

    def test_principal_submatrix_of_full_rank_is_full_rank(self):
        """The general linear-algebra fact in the proof of Lemma 4.1, on a
        random full-rank integer matrix and random principal submatrices."""
        rng = random.Random(5)
        d = 8
        while True:
            a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if rank_bareiss(a) == d:
                break
        for _ in range(10):
            size = rng.randint(1, d)
            idx = sorted(rng.sample(range(d), size))
            sub = [[a[i][j] for j in idx] for i in idx]
            assert rank_bareiss(sub) == size


class TestCCBounds:
    def test_partition_bound_growth(self):
        # Omega(n log n): bound / (n log2 n) stays bounded away from 0
        for n in (8, 16, 32):
            import math

            assert partition_cc_lower_bound(n) > 0.3 * n * math.log2(n)

    def test_two_partition_bound(self):
        import math

        assert two_partition_cc_lower_bound(8) == pytest.approx(math.log2(105))

    def test_two_partition_below_partition(self):
        for n in (4, 6, 8, 10):
            assert two_partition_cc_lower_bound(n) <= partition_cc_lower_bound(n)


class TestMemoizedEnumeration:
    def test_partitions_cache_hit_counter(self):
        clear_enumeration_cache()
        registry = MetricsRegistry()
        first = partitions_for(5, registry)
        assert registry.counter("partitions.enumeration_cache_hits").value == 0
        second = partitions_for(5, registry)
        assert second is first  # the cached tuple, not a recomputation
        assert registry.counter("partitions.enumeration_cache_hits").value == 1
        partitions_for(4, registry)  # a different n is a miss
        assert registry.counter("partitions.enumeration_cache_hits").value == 1
        clear_enumeration_cache()

    def test_matchings_cache_hit_counter(self):
        clear_enumeration_cache()
        registry = MetricsRegistry()
        first = matchings_for(6, registry)
        second = matchings_for(6, registry)
        assert second is first
        assert registry.counter("partitions.enumeration_cache_hits").value == 1
        clear_enumeration_cache()

    def test_m_rank_reuses_the_enumeration(self):
        clear_enumeration_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            m_matrix_rank(4)
            first_hits = registry.counter("partitions.enumeration_cache_hits").value
            m_matrix_rank(4)  # second call reuses the table
            assert (
                registry.counter("partitions.enumeration_cache_hits").value
                > first_hits
            )
        clear_enumeration_cache()

    def test_clear_forces_recompute(self):
        clear_enumeration_cache()
        registry = MetricsRegistry()
        partitions_for(4, registry)
        clear_enumeration_cache()
        partitions_for(4, registry)
        assert registry.counter("partitions.enumeration_cache_hits").value == 0
        clear_enumeration_cache()
