"""P3 -- packed/batched compute kernels vs the pure-python reference engines.

Times the kernel families of the kernels package -- numpy-batched mod-p
rank, bitset Hopcroft-Karp, and the batched crossing-pair filter behind the
indistinguishability graph builder -- against the reference implementations
they shadow, and asserts the fast results are identical to the reference
results on every benchmarked input.
Speed is reported; only identity is asserted (the machine-gated speedup
check lives in the ``kernels`` harness spec, warn-only).
"""

import pytest

from repro.analysis import print_table
from repro.indist import (
    BipartiteGraph,
    build_combinatorial_graph,
    hopcroft_karp,
    is_valid_matching,
    saturates,
)
from repro.partitions import DEFAULT_PRIMES, build_m_matrix, rank_mod_p


def _random_bipartite(lefts: int, rights: int, density: float, seed: int) -> BipartiteGraph:
    import random

    rng = random.Random(seed)
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


@pytest.mark.parametrize("n", [4, 5])
def test_modp_rank(benchmark, n):
    """Batched int64 elimination matches the reference rank mod p."""
    _parts, matrix = build_m_matrix(n)
    p = DEFAULT_PRIMES[0]

    def kernel():
        return rank_mod_p(matrix, p, kernel="auto")

    fast = benchmark(kernel)
    ref = rank_mod_p(matrix, p, kernel="reference")
    print_table(
        "P3: mod-p rank, batched vs reference",
        ["n", "rows", "p", "packed rank", "reference rank", "identical"],
        [[n, len(matrix), p, fast, ref, fast == ref]],
    )
    assert fast == ref


@pytest.mark.parametrize("seed", [0, 1])
def test_bitset_matching(benchmark, seed):
    """Bitset Hopcroft-Karp finds a maximum matching of the reference size."""
    graph = _random_bipartite(60, 60, 0.08, seed=seed)

    def kernel():
        return hopcroft_karp(graph, kernel="auto")

    fast = benchmark(kernel)
    ref = hopcroft_karp(graph, kernel="reference")
    print_table(
        "P3: Hopcroft-Karp, bitset vs reference",
        ["seed", "left", "right", "packed size", "reference size", "valid"],
        [[seed, 60, 60, len(fast), len(ref), is_valid_matching(graph, fast)]],
    )
    assert len(fast) == len(ref)
    assert is_valid_matching(graph, fast)
    # saturation verdicts (the engine-invariant k-matching quantity) agree
    for k in (1, 2):
        assert saturates(graph, k, kernel="auto") == saturates(graph, k, kernel="reference")


@pytest.mark.parametrize("n", [6])
def test_batched_graph_build(benchmark, n):
    """The batched crossing filter builds the identical combinatorial graph."""

    def kernel():
        return build_combinatorial_graph(n, kernel="auto")

    fast = benchmark(kernel)
    ref = build_combinatorial_graph(n, kernel="reference")
    identical = (
        sorted(fast.iter_left(), key=repr) == sorted(ref.iter_left(), key=repr)
        and sorted(fast.iter_right(), key=repr) == sorted(ref.iter_right(), key=repr)
        and all(fast.iter_neighbors(v) == ref.iter_neighbors(v) for v in fast.iter_left())
    )
    print_table(
        "P3: combinatorial graph G_n, batched vs reference",
        ["n", "lefts", "rights", "edges", "identical"],
        [[n, fast.left_count(), fast.right_count(), fast.edge_count(), identical]],
    )
    assert identical


@pytest.mark.parametrize("n", [5])
def test_sparse_modp_rank(benchmark, n):
    """P5: sparse dict-row elimination matches the dense rank on M_n mod p."""
    from repro.kernels import rank_mod_p_sparse

    _parts, matrix = build_m_matrix(n)
    p = DEFAULT_PRIMES[0]

    def kernel():
        return rank_mod_p_sparse(matrix, p)

    fast = benchmark(kernel)
    ref = rank_mod_p(matrix, p, kernel="auto")
    print_table(
        "P5: M_n mod-p rank, sparse vs dense",
        ["n", "rows", "sparse rank", "dense rank", "identical"],
        [[n, len(matrix), fast, ref, fast == ref]],
    )
    assert fast == ref


@pytest.mark.parametrize("n", [5])
def test_streamed_matrix_rank(benchmark, n):
    """P5: the streamed block pipeline returns the dense-pipeline rank."""
    from repro.partitions import m_matrix_rank, streamed_matrix_rank

    def kernel():
        return streamed_matrix_rank(n, "m", block_rows=16)

    fast = benchmark(kernel)
    ref = m_matrix_rank(n, streamed=False)
    print_table(
        "P5: rank(M_n), streamed vs dense pipeline",
        ["n", "streamed rank", "dense rank", "identical"],
        [[n, fast, ref, fast == ref]],
    )
    assert fast == ref
