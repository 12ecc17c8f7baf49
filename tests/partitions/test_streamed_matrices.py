"""The streamed block pipeline == the dense pipeline, bit for bit.

Streaming changes where rows live (sparse dicts decoded
block-by-block from the row bitmasks) but not what they are: ranks,
budget ticks, and worker-count invariance must all match the dense
list-of-lists pipeline on every family, prime, and block size.
Also covers the shared memoized enumeration and its cache-hit counter.
"""

import pytest

from repro.errors import BudgetExceededError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.partitions import (
    DEFAULT_BLOCK_ROWS,
    DEFAULT_PRIMES,
    STREAM_ROW_THRESHOLD,
    build_e_matrix,
    build_m_matrix,
    clear_enumeration_cache,
    e_matrix_rank,
    m_matrix_rank,
    matchings_for,
    partition_matrix,
    partitions_for,
    rank_mod_p,
    stream_matrix_rows,
    streamed_matrix_rank,
    streamed_matrix_rank_mod_p,
)
from repro.partitions.matrices import _use_streamed
from repro.resilience import Budget


class TestStreamMatrixRows:
    @pytest.mark.parametrize("family,n", [("m", 4), ("e", 6)])
    @pytest.mark.parametrize("block_rows", [1, 3, 1000])
    def test_blocks_reassemble_the_dense_matrix(self, family, n, block_rows):
        table = partitions_for(n) if family == "m" else matchings_for(n)
        dense = partition_matrix(table)
        seen_rows = []
        next_start = 0
        for start, rows in stream_matrix_rows(n, family, block_rows=block_rows):
            assert start == next_start
            next_start += len(rows)
            seen_rows.extend(rows)
        assert next_start == len(table)
        for cols_idx, dense_row in zip(seen_rows, dense):
            assert list(cols_idx) == [c for c, v in enumerate(dense_row) if v]

    def test_workers_do_not_change_the_blocks(self):
        serial = list(stream_matrix_rows(4, "m", block_rows=4, workers=1))
        fanned = list(stream_matrix_rows(4, "m", block_rows=4, workers=2))
        assert fanned == serial

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(stream_matrix_rows(4, "x"))
        with pytest.raises(ValueError):
            list(stream_matrix_rows(4, "m", block_rows=0))
        with pytest.raises(ValueError):
            list(stream_matrix_rows(4, "m", workers=0))


class TestStreamedRanks:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kernel", ["auto"])
    def test_m_rank_matches_dense(self, n, kernel):
        dense = m_matrix_rank(n, streamed=False)
        assert streamed_matrix_rank(n, "m", kernel=kernel, block_rows=7) == dense

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_e_rank_matches_dense(self, n):
        dense = e_matrix_rank(n, streamed=False)
        assert streamed_matrix_rank(n, "e", block_rows=5) == dense

    @pytest.mark.parametrize("p", [2, DEFAULT_PRIMES[0]])
    def test_mod_p_matches_dense(self, p):
        _parts, matrix = build_m_matrix(4)
        assert streamed_matrix_rank_mod_p(4, p, "m") == rank_mod_p(
            matrix, p, kernel="reference"
        )

    def test_workers_do_not_change_the_rank(self):
        assert streamed_matrix_rank(4, "m", workers=2, block_rows=3) == (
            streamed_matrix_rank(4, "m", workers=1, block_rows=3)
        )

    def test_reference_kernel_is_rejected(self):
        with pytest.raises(ValueError):
            streamed_matrix_rank_mod_p(4, 2, "m", kernel="reference")

    def test_empty_family(self):
        # n = 0 has one (empty) partition; rank of the 1x1 all-ones matrix
        assert streamed_matrix_rank(0, "m") == m_matrix_rank(0, streamed=False)


class TestStreamedBudgetParity:
    def test_tick_counts_match_dense_reference(self):
        p = DEFAULT_PRIMES[0]
        _parts, matrix = build_m_matrix(4)
        b_s, b_d = Budget(max_units=10_000), Budget(max_units=10_000)
        assert streamed_matrix_rank_mod_p(4, p, "m", budget=b_s) == rank_mod_p(
            matrix, p, b_d, kernel="reference"
        )
        assert b_s.units_done == b_d.units_done

    def test_exhaustion_boundary_matches_dense(self):
        probe = Budget(max_units=10_000)
        streamed_matrix_rank_mod_p(4, 2, "m", budget=probe)
        cutoff = probe.units_done - 1
        assert cutoff >= 1
        with pytest.raises(BudgetExceededError):
            streamed_matrix_rank_mod_p(4, 2, "m", budget=Budget(max_units=cutoff))
        _parts, matrix = build_m_matrix(4)
        with pytest.raises(BudgetExceededError):
            rank_mod_p(matrix, 2, Budget(max_units=cutoff), kernel="reference")


class TestEntryPointWiring:
    def test_forced_streamed_matches_dense(self):
        assert m_matrix_rank(5, streamed=True, block_rows=13) == m_matrix_rank(
            5, streamed=False
        )
        assert e_matrix_rank(6, streamed=True) == e_matrix_rank(6, streamed=False)

    def test_reference_plus_streamed_raises(self):
        with pytest.raises(ValueError):
            m_matrix_rank(4, kernel="reference", streamed=True)

    def test_auto_threshold(self):
        assert not _use_streamed(None, STREAM_ROW_THRESHOLD - 1, "auto")
        assert _use_streamed(None, STREAM_ROW_THRESHOLD, "auto")
        # reference never auto-streams; explicit choice always wins
        assert not _use_streamed(None, STREAM_ROW_THRESHOLD, "reference")
        assert _use_streamed(True, 1, "auto")
        assert not _use_streamed(False, 10**9, "auto")

    def test_default_block_rows_sane(self):
        assert 1 <= DEFAULT_BLOCK_ROWS <= STREAM_ROW_THRESHOLD


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

    def test_m_and_e_rank_share_the_enumeration(self):
        clear_enumeration_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            m_matrix_rank(4, streamed=False)
            first_hits = registry.counter("partitions.enumeration_cache_hits").value
            m_matrix_rank(4, streamed=False)  # second call reuses the table
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
