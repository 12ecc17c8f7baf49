"""Tests for the [MT16]-style deterministic syndrome-sketch algorithm."""

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BCC1_KT0, BCC1_KT1, NO, YES, BCCInstance, Simulator, decision_of_run
from repro.algorithms import (
    NeighborhoodSketch,
    berlekamp_massey,
    mt16_components_factory,
    mt16_connectivity_factory,
    mt16_rounds,
    peel_sketches,
)
from repro.algorithms.deterministic_sketch import FIELD_BITS, PRIME
from repro.graphs import (
    Graph,
    bounded_arboricity_graph,
    labels_agree_with_components,
    one_cycle,
    random_forest,
    two_cycles,
)
from repro.problems import ConnectedComponents

SIM1 = Simulator(BCC1_KT1)


class TestBerlekampMassey:
    def test_fibonacci(self):
        # s_n = s_{n-1} + s_{n-2}: connection poly 1 - x - x^2
        seq = [1, 1, 2, 3, 5, 8, 13, 21]
        c = berlekamp_massey(seq)
        assert len(c) == 3
        assert c[0] == 1
        assert c[1] == PRIME - 1 and c[2] == PRIME - 1

    def test_constant_sequence(self):
        c = berlekamp_massey([7, 7, 7, 7])
        assert len(c) == 2  # s_n = s_{n-1}

    def test_zero_sequence(self):
        assert berlekamp_massey([0, 0, 0, 0]) == [1]


class TestNeighborhoodSketch:
    def test_exact_decode(self):
        ids = list(range(30))
        for support in ([], [5], [0, 29], [1, 2, 3, 4]):
            s = NeighborhoodSketch.of_neighborhood(support, d=4)
            assert s.decode(ids) == sorted(support)

    def test_oversized_support_refused(self):
        ids = list(range(30))
        s = NeighborhoodSketch.of_neighborhood(list(range(5)), d=4)
        assert s.decode(ids) is None

    def test_linearity(self):
        s = NeighborhoodSketch.of_neighborhood([2, 9, 14], d=3)
        s.remove_point(9)
        assert s.decode(list(range(20))) == [2, 14]
        s.remove_point(2)
        s.remove_point(14)
        assert s.is_empty()

    def test_count(self):
        s = NeighborhoodSketch.of_neighborhood([1, 3, 5], d=4)
        assert s.count == 3

    def test_bit_round_trip(self):
        s = NeighborhoodSketch.of_neighborhood([0, 7, 11], d=4)
        t = NeighborhoodSketch.decode_bits(s.encode_bits(), 4)
        assert t.syndromes == s.syndromes

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodSketch.decode_bits("01", 4)


class TestPeeling:
    def test_recovers_a_path(self):
        nbrs = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        sketches = {v: NeighborhoodSketch.of_neighborhood(n, 4) for v, n in nbrs.items()}
        edges = peel_sketches(sketches, [0, 1, 2, 3], 4)
        assert edges == {(0, 1), (1, 2), (2, 3)}

    def test_hub_peeled_via_linearity(self):
        """A hub of degree 9 with d = 4 cannot be decoded directly; the
        leaves decode first and subtraction empties the hub's sketch."""
        n = 10
        nbrs = {0: list(range(1, n))}
        for i in range(1, n):
            nbrs[i] = [0]
        sketches = {v: NeighborhoodSketch.of_neighborhood(nb, 4) for v, nb in nbrs.items()}
        edges = peel_sketches(sketches, list(range(n)), 4)
        assert edges == {(0, i) for i in range(1, n)}

    def test_dense_graph_fails_gracefully(self):
        from repro.graphs import complete_graph

        g = complete_graph(12)  # arboricity 6 > d/4 = 1
        sketches = {
            v: NeighborhoodSketch.of_neighborhood(sorted(g.neighbors(v)), 4)
            for v in range(12)
        }
        assert peel_sketches(sketches, list(range(12)), 4) is None


class TestAlgorithm:
    @pytest.mark.parametrize(
        "builder,a,expected",
        [
            (lambda: one_cycle(14), 2, YES),
            (lambda: two_cycles(14, 6), 2, NO),
            (lambda: random_forest(15, 1, random.Random(1)), 1, YES),
            (lambda: random_forest(15, 3, random.Random(2)), 1, NO),
        ],
    )
    def test_connectivity(self, builder, a, expected):
        inst = BCCInstance.kt1_from_graph(builder())
        res = SIM1.run_until_done(inst, mt16_connectivity_factory(a), mt16_rounds(a) + 1)
        assert decision_of_run(res) == expected
        assert res.rounds_executed == mt16_rounds(a)

    def test_star_graph(self):
        n = 20
        star = Graph(range(n), [(0, i) for i in range(1, n)])
        inst = BCCInstance.kt1_from_graph(star)
        res = SIM1.run_until_done(inst, mt16_connectivity_factory(1), mt16_rounds(1) + 1)
        assert decision_of_run(res) == YES

    def test_components(self):
        problem = ConnectedComponents()
        rng = random.Random(9)
        for _ in range(3):
            g = bounded_arboricity_graph(14, 2, rng)
            inst = BCCInstance.kt1_from_graph(g)
            res = SIM1.run_until_done(
                inst, mt16_components_factory(2), mt16_rounds(2) + 1
            )
            assert problem.verify(inst, res.outputs)

    def test_round_count_independent_of_n(self):
        """One fixed-size burst: the round count is (8a + 1) * 31 / b,
        independent of n (the field covers IDs up to ~46000)."""
        for n in (8, 20, 40):
            inst = BCCInstance.kt1_from_graph(one_cycle(n))
            res = SIM1.run_until_done(
                inst, mt16_connectivity_factory(2), mt16_rounds(2) + 1
            )
            assert res.rounds_executed == mt16_rounds(2) == 527

    def test_beats_neighbor_exchange_constant(self):
        """Both are Theta(log n)-class; the sketch burst is a fixed 527
        rounds while full-adjacency is n -- crossover near n = 527."""
        assert mt16_rounds(2) == 527

    def test_requires_kt1(self):
        from repro.instances import one_cycle_instance

        with pytest.raises(ValueError):
            Simulator(BCC1_KT0).run(
                one_cycle_instance(8, kt=0), mt16_connectivity_factory(2), 5
            )

    def test_bad_arboricity(self):
        with pytest.raises(ValueError):
            mt16_connectivity_factory(0)()

    def test_violated_promise_fails_closed(self):
        """On a graph violating the arboricity bound the peeling stalls;
        the algorithm finishes in the 'failed' state and outputs a guess
        rather than wrong-but-confident garbage."""
        from repro.graphs import complete_graph

        inst = BCCInstance.kt1_from_graph(complete_graph(10))
        res = SIM1.run_until_done(inst, mt16_connectivity_factory(1), mt16_rounds(1) + 1)
        assert decision_of_run(res) in (YES, NO)


# -- oracles: the decoder before the peel stopped re-decoding ------------
#
# The berlekamp_massey, root test and peeling loop below are kept verbatim
# from the decoder that inverted with pow(bb, p - 2, p), evaluated the
# locator with one pow per coefficient, and re-decoded every unresolved
# vertex on every pass.


def _oracle_berlekamp_massey(sequence, p=PRIME):
    c = [1]
    b = [1]
    L, m, bb = 0, 1, 1
    for n, s_n in enumerate(sequence):
        delta = s_n % p
        for i in range(1, L + 1):
            delta = (delta + c[i] * sequence[n - i]) % p
        if delta == 0:
            m += 1
        elif 2 * L <= n:
            t = list(c)
            coef = (delta * pow(bb, p - 2, p)) % p
            c = c + [0] * (len(b) + m - len(c)) if len(b) + m > len(c) else c
            for i, bv in enumerate(b):
                c[i + m] = (c[i + m] - coef * bv) % p
            L = n + 1 - L
            b = t
            bb = delta
            m = 1
        else:
            coef = (delta * pow(bb, p - 2, p)) % p
            if len(b) + m > len(c):
                c = c + [0] * (len(b) + m - len(c))
            for i, bv in enumerate(b):
                c[i + m] = (c[i + m] - coef * bv) % p
            m += 1
    return [x % p for x in c]


def _oracle_decode(sketch, candidate_ids) -> Optional[List[int]]:
    t = sketch.count
    if t == 0:
        return []
    if t > sketch.d:
        return None
    locator = _oracle_berlekamp_massey(sketch.syndromes[1 : 2 * sketch.d + 1])
    degree = len(locator) - 1
    roots: List[int] = []
    for vid in candidate_ids:
        x = (vid + 1) % PRIME
        acc = 0
        for i, coef in enumerate(locator):
            acc = (acc + coef * pow(x, degree - i, PRIME)) % PRIME
        if acc == 0:
            roots.append(vid)
    if len(roots) != t:
        return None
    check = NeighborhoodSketch.of_neighborhood(roots, sketch.d)
    if check.syndromes != sketch.syndromes:
        return None
    return sorted(roots)


def _oracle_peel(sketches, all_ids, d, max_iterations=None):
    working = {vid: NeighborhoodSketch(d, list(s.syndromes)) for vid, s in sketches.items()}
    edges = set()
    resolved = set()
    budget = max_iterations if max_iterations is not None else len(all_ids) + 1
    for _ in range(budget):
        if len(resolved) == len(working):
            return edges
        progressed = False
        for vid in sorted(working):
            if vid in resolved:
                continue
            sketch = working[vid]
            if sketch.count > d:
                continue
            neighborhood = _oracle_decode(sketch, all_ids)
            if neighborhood is None:
                continue
            for u in neighborhood:
                edges.add((min(vid, u), max(vid, u)))
                working[u].remove_point(vid)
            working[vid] = NeighborhoodSketch(d)
            resolved.add(vid)
            progressed = True
        if not progressed:
            return None
    return edges if len(resolved) == len(working) else None


D = 8  # arboricity bound 2: the fault sweep's (2d + 1) * 31 = 527-bit payload
PAYLOAD_BITS = (2 * D + 1) * FIELD_BITS


def _corrupt(bits: str, flips, erasures) -> str:
    """Flip the bits at ``flips``; then drop the bits at ``erasures``, the
    stream shifting up and its tail refilled with zeros, so that the
    payload still frames (2d + 1) syndromes."""
    out = list(bits)
    for i in flips:
        out[i] = "1" if out[i] == "0" else "0"
    erased = set(erasures)
    kept = [bit for i, bit in enumerate(out) if i not in erased]
    return "".join(kept).ljust(len(bits), "0")


@st.composite
def corrupted_sketches(draw):
    n = draw(st.integers(2, 14))
    arboricity = draw(st.integers(1, 4))  # above 2 breaks the peel's promise
    graph = bounded_arboricity_graph(n, arboricity, random.Random(draw(st.integers(0, 2**16))))
    ids = draw(st.lists(st.integers(0, 2**15), min_size=n, max_size=n, unique=True))
    positions = st.integers(0, PAYLOAD_BITS - 1)
    count_positions = st.integers(0, FIELD_BITS - 1)  # p_0, the count
    victims = draw(st.sets(st.integers(0, n - 1), max_size=2))
    sketches = {}
    for v in range(n):
        bits = NeighborhoodSketch.of_neighborhood(
            sorted(ids[u] for u in graph.neighbors(v)), D
        ).encode_bits()
        assert len(bits) == PAYLOAD_BITS
        if v in victims:
            flips = draw(st.lists(positions | count_positions, max_size=3, unique=True))
            erasures = draw(st.lists(positions | count_positions, max_size=2))
            bits = _corrupt(bits, flips, erasures)
        sketches[ids[v]] = NeighborhoodSketch.decode_bits(bits, D)
    return sketches, sorted(ids)


class TestDecoderOracle:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_sketches())
    def test_peel_equals_the_redecoding_loop(self, case):
        sketches, all_ids = case
        expected = _oracle_peel(sketches, all_ids, D)
        assert peel_sketches(sketches, all_ids, D) == expected
        for vid, sketch in sketches.items():
            assert sketch.decode(all_ids) == _oracle_decode(sketch, all_ids)

    def test_a_failed_decode_is_retried_once_its_sketch_changes(self):
        """Vertex 0's sketch counts neighbor 1 twice, so it cannot decode
        until vertex 1 is peeled and removes one copy of itself."""
        sketches = {
            0: NeighborhoodSketch.of_neighborhood([1, 1, 2], D),
            1: NeighborhoodSketch.of_neighborhood([0], D),
            2: NeighborhoodSketch.of_neighborhood([0], D),
        }
        assert sketches[0].decode([0, 1, 2]) is None
        expected = _oracle_peel(sketches, [0, 1, 2], D)
        assert expected == {(0, 1), (0, 2)}
        assert peel_sketches(sketches, [0, 1, 2], D) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, PRIME - 1), max_size=2 * D))
    def test_berlekamp_massey_equals_the_fermat_inverse(self, sequence):
        assert berlekamp_massey(sequence) == _oracle_berlekamp_massey(sequence)
