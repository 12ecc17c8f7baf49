"""Silent degradation when numpy is absent: same numbers, pure python.

The auto mode must never *require* numpy: the batched mod-p engine
falls back to the reference path. These tests simulate a numpy-less
install by monkeypatching the module-level ``_np`` handle.
"""

import pytest

import repro.kernels.modp as modp
import repro.partitions.linalg as linalg
from repro.partitions import (
    DEFAULT_PRIMES,
    bell_number,
    build_m_matrix,
    m_matrix_rank,
    partitions_for,
    rank_exact,
    rank_mod_p,
)
from repro.partitions.matrices import _rank_rows


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setattr(modp, "_np", None)
    monkeypatch.setattr(modp, "HAVE_NUMPY", False)
    yield


class TestModpFallback:
    def test_supported_is_false_without_numpy(self, no_numpy):
        assert not modp.batched_modp_supported(DEFAULT_PRIMES[0])

    def test_batched_raises_without_numpy(self, no_numpy):
        with pytest.raises(RuntimeError):
            modp.rank_mod_p_batched([[1]], DEFAULT_PRIMES[0])

    def test_engine_dispatch_degrades_to_python(self, no_numpy):
        # every prime, p = 2 included, falls back to the reference engine
        # at every size, the batched engine's sizes included
        for p in (2, *DEFAULT_PRIMES):
            for rows in (linalg.BATCHED_MIN_ROWS - 1, linalg.BATCHED_MIN_ROWS, 877):
                assert linalg._modp_engine(p, "auto", rows) == "python"
        assert not linalg.rank_reads_arrays("auto", 877)

    def test_rank_values_unchanged(self, no_numpy):
        _parts, matrix = build_m_matrix(3)
        for p in (2, *DEFAULT_PRIMES):
            assert rank_mod_p(matrix, p, kernel="auto") == rank_mod_p(
                matrix, p, kernel="reference"
            )
        assert rank_exact(matrix, kernel="auto") == rank_exact(
            matrix, kernel="reference"
        )

    def test_paper_ranks_take_the_list_of_lists(self, no_numpy):
        # no uint8 decode when the batched engine cannot run
        assert isinstance(_rank_rows(partitions_for(5), "auto"), list)
        assert m_matrix_rank(5) == bell_number(5)
