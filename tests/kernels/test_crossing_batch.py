"""Batched crossing-pair filter == the pair-by-pair reference filter."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indist.graph_builder import (
    cross_cover,
    crossing_neighbors,
    build_combinatorial_graph,
)
from repro.instances.enumeration import enumerate_one_cycle_covers
from repro.kernels import valid_crossing_pairs
from repro.kernels.crossing_batch import _valid_pairs_python


def _all_active(cover):
    active = []
    for u, v in sorted(cover.edges):
        active.append((u, v))
        active.append((v, u))
    return active


def _reference_pairs(cover, active):
    out = []
    for e1, e2 in combinations(active, 2):
        if cross_cover(cover, e1, e2) is not None:
            out.append((e1, e2))
    return out


class TestValidCrossingPairs:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_equals_reference_on_every_one_cycle_cover(self, n):
        for cover in enumerate_one_cycle_covers(n):
            active = _all_active(cover)
            got = valid_crossing_pairs(cover.n, cover.edges, active)
            assert got == _reference_pairs(cover, active)

    def test_restricted_active_sets(self):
        rng = random.Random(5)
        covers = list(enumerate_one_cycle_covers(6))
        for cover in covers:
            full = _all_active(cover)
            active = [e for e in full if rng.random() < 0.5]
            got = valid_crossing_pairs(cover.n, cover.edges, active)
            assert got == _reference_pairs(cover, active)

    def test_empty_inputs(self):
        cover = next(iter(enumerate_one_cycle_covers(4)))
        assert valid_crossing_pairs(4, cover.edges, []) == []
        assert valid_crossing_pairs(4, cover.edges, [(0, 1)]) == []
        assert valid_crossing_pairs(4, frozenset(), [(0, 1), (2, 3)]) == []

    def test_python_fallback_identical(self):
        for cover in enumerate_one_cycle_covers(6):
            active = _all_active(cover)
            assert _valid_pairs_python(
                cover.n, cover.edges, active
            ) == valid_crossing_pairs(cover.n, cover.edges, active)


class TestGraphBuilderIdentity:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_crossing_neighbors_equal(self, n):
        for cover in enumerate_one_cycle_covers(n):
            assert crossing_neighbors(cover, kernel="auto") == crossing_neighbors(
                cover, kernel="reference"
            )

    @pytest.mark.parametrize("n", [4, 6])
    def test_combinatorial_graph_edge_for_edge(self, n):
        fast = build_combinatorial_graph(n, kernel="auto")
        ref = build_combinatorial_graph(n, kernel="reference")
        assert sorted(fast.iter_left(), key=repr) == sorted(ref.iter_left(), key=repr)
        assert sorted(fast.iter_right(), key=repr) == sorted(
            ref.iter_right(), key=repr
        )
        for v in fast.iter_left():
            assert fast.iter_neighbors(v) == ref.iter_neighbors(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hypothesis_random_active_subsets(seed):
    rng = random.Random(seed)
    covers = list(enumerate_one_cycle_covers(6))
    cover = covers[rng.randrange(len(covers))]
    full = _all_active(cover)
    active = [e for e in full if rng.random() < rng.choice([0.3, 0.7, 1.0])]
    assert valid_crossing_pairs(cover.n, cover.edges, active) == _reference_pairs(
        cover, active
    )


class TestNumpyBranch:
    """The batched path itself (above BATCH_THRESHOLD) stays identical."""

    def test_forced_batch_identical_on_small_covers(self, monkeypatch):
        pytest.importorskip("numpy")
        import repro.kernels.crossing_batch as cb

        monkeypatch.setattr(cb, "BATCH_THRESHOLD", 2)
        for cover in enumerate_one_cycle_covers(6):
            active = _all_active(cover)
            assert cb.valid_crossing_pairs(
                cover.n, cover.edges, active
            ) == _reference_pairs(cover, active)

    def test_large_cycle_crosses_threshold_naturally(self):
        pytest.importorskip("numpy")
        from repro.indist.graph_builder import cover_from_edges
        from repro.kernels.crossing_batch import BATCH_THRESHOLD

        n = 40  # 80 active directed edges: the batch path engages
        edges = [(i, (i + 1) % n) for i in range(n)]
        cover = cover_from_edges(n, [(min(a, b), max(a, b)) for a, b in edges])
        active = _all_active(cover)
        assert len(active) >= BATCH_THRESHOLD
        got = valid_crossing_pairs(cover.n, cover.edges, active)
        assert got == _reference_pairs(cover, active)
        assert got  # a long cycle has plenty of independent pairs
