"""Bitset Hopcroft-Karp and the shared-mask k-clone engine vs the reference.

The engine-invariant quantities (pinned here): maximum-matching *size*
on every graph, validity of every returned matching/star, saturation
verdicts and ``max_saturating_k``. The specific matched edges -- and,
in deficient k-matching cases, the number of *complete* stars -- are
artifacts of which maximum matching a search finds and are NOT pinned
(see the module docstring of :mod:`repro.kernels.bitset_matching`).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indist import (
    BipartiteGraph,
    hopcroft_karp,
    is_valid_k_matching,
    is_valid_matching,
    k_matching,
    max_saturating_k,
    maximum_matching_size,
    saturates,
)
from repro.kernels import compile_bipartite, hopcroft_karp_bitset, k_matching_bitset


def _graph(lefts, rights, edges):
    g = BipartiteGraph()
    for v in lefts:
        g.add_left(v)
    for v in rights:
        g.add_right(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _random_graph(rng, lefts=8, rights=8, density=0.3):
    g = BipartiteGraph()
    for u in range(lefts):
        g.add_left(("L", u))
    for v in range(rights):
        g.add_right(("R", v))
    for u in range(lefts):
        for v in range(rights):
            if rng.random() < density:
                g.add_edge(("L", u), ("R", v))
    return g


class TestCompile:
    def test_repr_sorted_and_masked(self):
        g = _graph(["b", "a"], ["y", "x"], [("a", "x"), ("b", "x"), ("b", "y")])
        lefts, rights, masks = compile_bipartite(g)
        assert lefts == ["a", "b"]
        assert rights == ["x", "y"]
        assert masks == [0b01, 0b11]

    def test_empty(self):
        lefts, rights, masks = compile_bipartite(BipartiteGraph())
        assert (lefts, rights, masks) == ([], [], [])


class TestHopcroftKarpBitset:
    def test_empty_graph(self):
        assert hopcroft_karp_bitset(BipartiteGraph()) == {}

    def test_perfect_matching(self):
        g = _graph([0, 1, 2], ["a", "b", "c"],
                   [(0, "a"), (1, "b"), (2, "c"), (0, "b")])
        m = hopcroft_karp_bitset(g)
        assert len(m) == 3
        assert is_valid_matching(g, m)

    def test_size_matches_reference_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(150):
            g = _random_graph(rng, lefts=rng.randrange(0, 9),
                              rights=rng.randrange(0, 9),
                              density=rng.choice([0.1, 0.3, 0.6]))
            fast = hopcroft_karp_bitset(g)
            ref = hopcroft_karp(g, kernel="reference")
            assert is_valid_matching(g, fast)
            assert len(fast) == len(ref)

    def test_front_door_kernel_param(self):
        g = _graph([0, 1], ["a"], [(0, "a"), (1, "a")])
        assert maximum_matching_size(g, kernel="auto") == 1
        assert maximum_matching_size(g, kernel="reference") == 1


class TestKMatchingBitset:
    def test_k_below_one_raises(self):
        with pytest.raises(ValueError):
            k_matching_bitset(BipartiteGraph(), 0)

    def test_empty_graph(self):
        assert k_matching_bitset(BipartiteGraph(), 2) == {}

    def test_saturating_case_counts_forced(self):
        # K_{2,4}: every left vertex gets a full 2-star; count is forced.
        g = _graph([0, 1], ["a", "b", "c", "d"],
                   [(u, r) for u in (0, 1) for r in "abcd"])
        stars = k_matching_bitset(g, 2)
        assert len(stars) == 2
        assert is_valid_k_matching(g, 2, stars)
        ref = k_matching(g, 2, kernel="reference")
        assert len(ref) == 2

    def test_invariants_match_reference_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(80):
            g = _random_graph(rng, lefts=rng.randrange(1, 6),
                              rights=rng.randrange(1, 8),
                              density=rng.choice([0.2, 0.5, 0.8]))
            for k in (1, 2, 3):
                fast = k_matching_bitset(g, k)
                assert is_valid_k_matching(g, k, fast)
                assert saturates(g, k, kernel="auto") == saturates(
                    g, k, kernel="reference"
                )
            assert max_saturating_k(g, kernel="auto") == max_saturating_k(
                g, kernel="reference"
            )

    def test_deficient_star_counts_may_differ_but_size_is_pinned(self):
        # L = {0, 1}, R = {a, b}, complete, k = 2: max matching of the
        # cloned graph has size 2, realizable as one full star or two
        # half-stars. Both engines must agree on saturation (False) and
        # produce only valid stars.
        g = _graph([0, 1], ["a", "b"], [(0, "a"), (0, "b"), (1, "a"), (1, "b")])
        for kern in ("auto", "reference"):
            assert not saturates(g, 2, kernel=kern)
            assert is_valid_k_matching(g, 2, k_matching(g, 2, kernel=kern))


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
    st.integers(min_value=1, max_value=3),
)
def test_hypothesis_sizes_and_saturation_agree(edge_set, k):
    g = BipartiteGraph()
    for u in range(6):
        g.add_left(("L", u))
    for v in range(6):
        g.add_right(("R", v))
    for u, v in edge_set:
        g.add_edge(("L", u), ("R", v))
    fast = hopcroft_karp(g, kernel="auto")
    ref = hopcroft_karp(g, kernel="reference")
    assert is_valid_matching(g, fast)
    assert len(fast) == len(ref)
    assert saturates(g, k, kernel="auto") == saturates(g, k, kernel="reference")
