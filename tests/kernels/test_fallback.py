"""Silent degradation when numpy is absent: same numbers, pure python.

The auto mode must never *require* numpy: the bitset-HK engine is
dependency-free, and the numpy-backed engines (batched mod-p, batched
crossing filter) fall back to the reference path. These
tests simulate a numpy-less install by monkeypatching the module-level
``_np`` handles.
"""

import pytest

import repro.kernels.crossing_batch as crossing_batch
import repro.kernels.modp as modp
import repro.partitions.linalg as linalg
from repro.indist.graph_builder import build_combinatorial_graph, crossing_neighbors
from repro.instances.enumeration import enumerate_one_cycle_covers
from repro.kernels import valid_crossing_pairs
from repro.partitions import DEFAULT_PRIMES, build_m_matrix, rank_exact, rank_mod_p


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setattr(modp, "_np", None)
    monkeypatch.setattr(modp, "HAVE_NUMPY", False)
    monkeypatch.setattr(crossing_batch, "_np", None)
    monkeypatch.setattr(crossing_batch, "HAVE_NUMPY", False)
    yield


class TestModpFallback:
    def test_supported_is_false_without_numpy(self, no_numpy):
        assert not modp.batched_modp_supported(DEFAULT_PRIMES[0])

    def test_batched_raises_without_numpy(self, no_numpy):
        with pytest.raises(RuntimeError):
            modp.rank_mod_p_batched([[1]], DEFAULT_PRIMES[0])

    def test_engine_dispatch_degrades_to_python(self, no_numpy):
        # every prime, p = 2 included, falls back to the reference engine
        for p in (2, *DEFAULT_PRIMES):
            assert linalg._modp_engine(p, "auto") == "python"

    def test_rank_values_unchanged(self, no_numpy):
        _parts, matrix = build_m_matrix(3)
        for p in (2, *DEFAULT_PRIMES):
            assert rank_mod_p(matrix, p, kernel="auto") == rank_mod_p(
                matrix, p, kernel="reference"
            )
        assert rank_exact(matrix, kernel="auto") == rank_exact(
            matrix, kernel="reference"
        )


class TestCrossingFallback:
    def test_filter_identical_without_numpy(self, no_numpy):
        for cover in enumerate_one_cycle_covers(5):
            active = []
            for u, v in sorted(cover.edges):
                active.append((u, v))
                active.append((v, u))
            with_fallback = valid_crossing_pairs(cover.n, cover.edges, active)
            assert with_fallback == crossing_batch._valid_pairs_python(
                cover.n, cover.edges, active
            )

    def test_graph_builder_unchanged_without_numpy(self, no_numpy):
        fast = build_combinatorial_graph(5, kernel="auto")
        ref = build_combinatorial_graph(5, kernel="reference")
        for v in fast.iter_left():
            assert fast.iter_neighbors(v) == ref.iter_neighbors(v)
        cover = next(iter(enumerate_one_cycle_covers(5)))
        assert crossing_neighbors(cover, kernel="auto") == crossing_neighbors(
            cover, kernel="reference"
        )
