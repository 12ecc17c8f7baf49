"""Deterministic syndrome sketching: the [MT16] tightness algorithm.

The paper closes its introduction with: *"using a deterministic sketching
technique [MT16], it is possible to obtain a deterministic O(log n)-round
BCC(1) algorithm for Connectivity for graphs with arboricity bounded by a
constant. This implies that our lower bounds are tight for uniformly
sparse graphs."* This module implements that algorithm.

Every vertex v broadcasts, **once**, a deterministic linear sketch of its
neighborhood: the power sums

    p_k(v) = sum_{u in N(v)} (ID(u) + 1)^k  mod p,   k = 0 .. 2d,

with d = 4a for arboricity bound a. Two classical facts make this work:

* a multiset of at most 2d points with vanishing moments p_0..p_{2d-1}
  is empty (Vandermonde), so a vertex whose remaining degree p_0 is at
  most d has a *uniquely decodable* neighborhood;
* the sketch is linear, so when a vertex's neighborhood is decoded, its
  edges can be *subtracted from the other endpoint's sketch locally* --
  no further communication.

Decoding uses Berlekamp-Massey on the power-sum sequence to find the
locator polynomial and trial evaluation over the n known IDs to find its
roots. The arboricity bound guarantees that iterated local peeling
(decode every vertex with remaining count <= d, subtract, repeat) always
makes progress and terminates with the full edge set at every vertex.

Communication: one burst of (2d + 1) field elements per vertex --
O(a log n) bits, i.e. **O(log n) rounds of BCC(1) for constant
arboricity**, deterministically, in KT-1. Together with the Omega(log n)
lower bound this pins Connectivity on uniformly sparse graphs at
Theta(log n).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.algorithm import NO, YES, NodeAlgorithm
from repro.core.knowledge import InitialKnowledge
from repro.algorithms.bit_codec import encode_fixed, id_bit_width
from repro.graphs.components import UnionFind

#: Field modulus: Mersenne prime 2^31 - 1 (IDs + 1 must stay below it).
PRIME = (1 << 31) - 1
FIELD_BITS = 31


def berlekamp_massey(sequence: Sequence[int], p: int = PRIME) -> List[int]:
    """Minimal LFSR connection polynomial of a sequence over GF(p).

    Returns [1, c_1, .., c_L] such that
    s_n = -(c_1 s_{n-1} + ... + c_L s_{n-L}) for all valid n.
    """
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
            coef = (delta * pow(bb, -1, p)) % p
            c = c + [0] * (len(b) + m - len(c)) if len(b) + m > len(c) else c
            for i, bv in enumerate(b):
                c[i + m] = (c[i + m] - coef * bv) % p
            L = n + 1 - L
            b = t
            bb = delta
            m = 1
        else:
            coef = (delta * pow(bb, -1, p)) % p
            if len(b) + m > len(c):
                c = c + [0] * (len(b) + m - len(c))
            for i, bv in enumerate(b):
                c[i + m] = (c[i + m] - coef * bv) % p
            m += 1
    return [x % p for x in c]


class NeighborhoodSketch:
    """Power-sum syndromes of a neighborhood (linear, exactly decodable)."""

    __slots__ = ("d", "syndromes")

    def __init__(self, d: int, syndromes: Optional[List[int]] = None):
        self.d = d
        self.syndromes = syndromes if syndromes is not None else [0] * (2 * d + 1)

    @staticmethod
    def of_neighborhood(neighbor_ids: Sequence[int], d: int) -> "NeighborhoodSketch":
        sketch = NeighborhoodSketch(d)
        for u in neighbor_ids:
            sketch.add_point(u)
        return sketch

    def add_point(self, vertex_id: int, sign: int = 1) -> None:
        x = (vertex_id + 1) % PRIME
        power = 1
        for k in range(len(self.syndromes)):
            self.syndromes[k] = (self.syndromes[k] + sign * power) % PRIME
            power = (power * x) % PRIME

    def remove_point(self, vertex_id: int) -> None:
        self.add_point(vertex_id, sign=-1)

    @property
    def count(self) -> int:
        """p_0: the number of remaining points (exact while < PRIME)."""
        return self.syndromes[0]

    def is_empty(self) -> bool:
        return all(s == 0 for s in self.syndromes)

    def decode(self, candidate_ids: Sequence[int]) -> Optional[List[int]]:
        """Recover the point set if its size is at most d; else None.

        Berlekamp-Massey on p_1..p_{2d} yields the locator; roots are
        found by trial over the candidate universe and verified against
        every syndrome.
        """
        t = self.count
        if t == 0:
            return []
        if t > self.d:
            return None
        locator = berlekamp_massey(self.syndromes[1 : 2 * self.d + 1])
        degree = len(locator) - 1
        roots: List[int] = []
        for vid in candidate_ids:
            x = (vid + 1) % PRIME
            # locator[0] + locator[1] x + ... == 0 at the reciprocal roots;
            # with the BM convention the characteristic poly evaluated at
            # 1/x vanishes -- equivalently sum locator[i] * x^{-i} = 0, so
            # test sum locator[i] * x^{degree - i}, by Horner.
            acc = 0
            for coef in locator:
                acc = (acc * x + coef) % PRIME
            if acc == 0:
                roots.append(vid)
        if len(roots) != t:
            return None
        check = NeighborhoodSketch.of_neighborhood(roots, self.d)
        if check.syndromes != self.syndromes:
            return None
        return sorted(roots)

    def encode_bits(self) -> str:
        return "".join(encode_fixed(s, FIELD_BITS) for s in self.syndromes)

    @staticmethod
    def decode_bits(bits: str, d: int) -> "NeighborhoodSketch":
        expected = (2 * d + 1) * FIELD_BITS
        if len(bits) != expected:
            raise ValueError(f"expected {expected} bits, got {len(bits)}")
        syndromes = [
            int(bits[k * FIELD_BITS : (k + 1) * FIELD_BITS], 2)
            for k in range(2 * d + 1)
        ]
        return NeighborhoodSketch(d, syndromes)


def peel_sketches(
    sketches: Dict[int, NeighborhoodSketch],
    all_ids: Sequence[int],
    d: int,
    max_iterations: Optional[int] = None,
) -> Optional[Set[Tuple[int, int]]]:
    """The local peeling decoder: recover the entire edge set, or None.

    Repeatedly decodes every vertex whose remaining count is <= d,
    removes its edges from the other endpoints' sketches, and repeats.
    Succeeds on every graph of arboricity <= d/4 (more than half the
    remaining vertices are decodable each iteration).

    A decode is a pure function of the syndromes, so a vertex whose
    decode failed is not decoded again until ``remove_point`` changes
    its sketch.
    """
    working = {vid: NeighborhoodSketch(d, list(s.syndromes)) for vid, s in sketches.items()}
    edges: Set[Tuple[int, int]] = set()
    resolved: Set[int] = set()
    undecodable: Set[int] = set()
    budget = max_iterations if max_iterations is not None else len(all_ids) + 1
    for _ in range(budget):
        if len(resolved) == len(working):
            return edges
        progressed = False
        for vid in sorted(working):
            if vid in resolved or vid in undecodable:
                continue
            sketch = working[vid]
            if sketch.count > d:
                continue
            neighborhood = sketch.decode(all_ids)
            if neighborhood is None:
                undecodable.add(vid)
                continue
            for u in neighborhood:
                edges.add((min(vid, u), max(vid, u)))
                working[u].remove_point(vid)
                undecodable.discard(u)
            working[vid] = NeighborhoodSketch(d)
            resolved.add(vid)
            progressed = True
        if not progressed:
            return None
    return edges if len(resolved) == len(working) else None


class MT16Connectivity(NodeAlgorithm):
    """Deterministic sketch connectivity for bounded-arboricity graphs.

    One broadcast burst of (2d + 1) * 31 bits per vertex (paced at b bits
    per round), then purely local peeling. KT-1, deterministic, and
    O(a log n) rounds at b = 1: the tightness witness of Section 1.1.
    """

    #: Output mode: "connectivity" (YES/NO) or "components" (min-ID label).
    mode = "connectivity"

    def __init__(self, arboricity: int):
        if arboricity < 1:
            raise ValueError(f"arboricity bound must be >= 1, got {arboricity}")
        self._a = arboricity
        self._d = 4 * arboricity

    def setup(self, knowledge: InitialKnowledge) -> None:
        super().setup(knowledge)
        if knowledge.kt != 1:
            raise ValueError("MT16Connectivity requires the KT-1 model")
        self._all_ids = sorted(knowledge.all_ids)
        self._payload = NeighborhoodSketch.of_neighborhood(
            sorted(knowledge.input_ports), self._d
        ).encode_bits()
        self._total_rounds = math.ceil(len(self._payload) / knowledge.bandwidth)
        # Each round's port -> bits mapping; in KT-1 ports are sender IDs.
        self._rounds: List[Mapping[int, str]] = []
        self._edges: Optional[Set[Tuple[int, int]]] = None
        self._failed = False

    def broadcast(self, round_index: int) -> str:
        if round_index > self._total_rounds:
            return ""
        b = self.knowledge.bandwidth
        return self._payload[(round_index - 1) * b : round_index * b]

    def receive(self, round_index: int, messages: Mapping[int, str]) -> None:
        if self._edges is not None or self._failed:
            return
        self._rounds.append(messages)
        if round_index == self._total_rounds:
            self._finish()

    def _finish(self) -> None:
        sketches: Dict[int, NeighborhoodSketch] = {}
        me = self.knowledge.vertex_id
        for vid in self._all_ids:
            if vid == me:
                sketches[vid] = NeighborhoodSketch.decode_bits(self._payload, self._d)
            else:
                bits = "".join(map(itemgetter(vid), self._rounds))[: len(self._payload)]
                sketches[vid] = NeighborhoodSketch.decode_bits(bits, self._d)
        edges = peel_sketches(sketches, self._all_ids, self._d)
        if edges is None:
            self._failed = True  # arboricity promise violated
        else:
            self._edges = edges

    def finished(self) -> bool:
        return self._edges is not None or self._failed

    def _components(self) -> Optional[UnionFind]:
        if self._edges is None:
            return None
        uf = UnionFind(self._all_ids)
        for u, v in self._edges:
            uf.union(u, v)
        return uf

    def output(self):
        uf = self._components()
        if self.mode == "components":
            me = self.knowledge.vertex_id
            if uf is None:
                return me
            return min(x for x in self._all_ids if uf.connected(x, me))
        if uf is None:
            return YES
        return YES if uf.component_count() == 1 else NO


class MT16Components(MT16Connectivity):
    mode = "components"


def mt16_connectivity_factory(arboricity: int) -> Callable[[], MT16Connectivity]:
    return lambda: MT16Connectivity(arboricity)


def mt16_components_factory(arboricity: int) -> Callable[[], MT16Components]:
    return lambda: MT16Components(arboricity)


def mt16_rounds(arboricity: int, bandwidth: int = 1) -> int:
    """(2 * 4a + 1) * 31 bits paced at b bits per round: O(a log n) at
    b = 1 (the field width plays the role of the log n factor)."""
    return math.ceil((2 * 4 * arboricity + 1) * FIELD_BITS / bandwidth)
