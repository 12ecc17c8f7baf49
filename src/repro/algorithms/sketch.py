"""AGM-style linear-sketch connectivity in the broadcast congested clique.

The paper's closing tightness remark cites sketching upper bounds for
Connectivity on sparse graphs [MT16]; this module implements the classic
*randomized* linear-sketching approach of Ahn, Guha and McGregor, adapted
to the broadcast model, as the general-graph comparator:

* every vertex v owns the signed incidence vector a_v over the C(n, 2)
  edge coordinates (+1 at {v, u} if v is the lower endpoint, -1 if the
  higher); for any vertex set S, sum_{v in S} a_v is supported exactly on
  the edges leaving S (internal edges cancel);
* an l0-sampler compresses a_v to O(log^2 n) bits per Boruvka phase while
  still allowing recovery of *one* nonzero coordinate of any summed
  sketch, with constant success probability per level set;
* in each phase every vertex broadcasts its fresh sketch; since broadcasts
  are global, every vertex locally sums member sketches per component,
  recovers an outgoing edge per component, and performs identical Boruvka
  merges. O(log n) phases suffice w.h.p.

With bandwidth b, a phase costs ceil(levels * 3 * 31 / b) rounds, so the
total is O(log^2 n / b * log n) -- polylogarithmic rounds in BCC(log n),
versus Theta(n) for the full-adjacency baseline on dense inputs. (The
deterministic O(log n) bound of [MT16] for bounded arboricity is covered
separately by the neighborhood-exchange algorithm.)

The public coin supplies all hash functions, so every vertex samples with
identical randomness -- exactly the shared-randomness regime of the model.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.algorithm import NO, YES, NodeAlgorithm
from repro.core.knowledge import InitialKnowledge
from repro.core.randomness import PublicCoin
from repro.algorithms.bit_codec import encode_fixed
from repro.graphs.components import UnionFind

#: Field modulus for fingerprints: the Mersenne prime 2^31 - 1.
PRIME = (1 << 31) - 1
#: Bits per sketch entry (three field elements per level).
ENTRY_BITS = 31
FIELDS_PER_LEVEL = 3


def edge_coordinate(i: int, j: int, n: int) -> int:
    """Index of the unordered pair {i, j} (positions 0 <= i < j < n) in the
    colexicographic enumeration of the C(n, 2) edge coordinates."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) with n={n}")
    return j * (j - 1) // 2 + i


def coordinate_to_edge(coord: int, n: int) -> Tuple[int, int]:
    """Inverse of :func:`edge_coordinate`."""
    j = int((1 + math.isqrt(1 + 8 * coord)) // 2)
    while j * (j - 1) // 2 > coord:
        j -= 1
    while (j + 1) * j // 2 <= coord:
        j += 1
    i = coord - j * (j - 1) // 2
    if not 0 <= i < j < n:
        raise ValueError(f"coordinate {coord} out of range for n={n}")
    return i, j


class SketchSpec:
    """The shared per-phase sketch parameters, derived from the public coin.

    Every vertex constructs an identical SketchSpec (same coin, same phase
    index), which is what makes the summed sketches meaningful.
    """

    def __init__(self, coin: PublicCoin, phase: int, n: int, levels: Optional[int] = None):
        self._coin = coin.substream(f"agm-phase-{phase}")
        self.n = n
        self.levels = levels if levels is not None else 2 * max(1, math.ceil(math.log2(max(2, n)))) + 2
        # fingerprint base, shared across levels
        self.base = self._coin.randint("fingerprint-base", 2, PRIME - 2)

    def level_of(self, coord: int) -> int:
        """The deepest sampling level that includes this coordinate.

        Level l includes a coordinate with probability 2^-l (level 0
        includes everything); a coordinate is included in levels 0..L(e).
        """
        stream = self._coin.bits(f"lvl|{coord}", self.levels)
        depth = 0
        for bit in stream:
            if bit == 1:
                break
            depth += 1
        return depth

    def empty_sketch(self) -> List[List[int]]:
        """[count, weighted-sum, fingerprint] per level, all mod PRIME."""
        return [[0, 0, 0] for _ in range(self.levels)]

    def add_coordinate(self, sketch: List[List[int]], coord: int, sign: int) -> None:
        """Fold one +-1 coordinate into a sketch."""
        depth = self.level_of(coord)
        fp = (sign * pow(self.base, coord, PRIME)) % PRIME
        for level in range(min(depth, self.levels - 1) + 1):
            entry = sketch[level]
            entry[0] = (entry[0] + sign) % PRIME
            entry[1] = (entry[1] + sign * (coord + 1)) % PRIME
            entry[2] = (entry[2] + fp) % PRIME

    def combine(self, a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
        """Entrywise sum of two sketches (linearity)."""
        return [
            [(x + y) % PRIME for x, y in zip(ea, eb)] for ea, eb in zip(a, b)
        ]

    def recover(self, sketch: List[List[int]]) -> Optional[Tuple[int, int]]:
        """Recover (coordinate, sign) from a summed sketch, if some level is
        1-sparse; None when every level fails the verification."""
        for level in range(self.levels - 1, -1, -1):
            count, weighted, fingerprint = sketch[level]
            for sign, c_val in ((1, 1), (-1, PRIME - 1)):
                if count != c_val:
                    continue
                w = weighted if sign == 1 else (PRIME - weighted) % PRIME
                coord = w - 1
                if not 0 <= coord < self.n * (self.n - 1) // 2:
                    continue
                expected = (sign * pow(self.base, coord, PRIME)) % PRIME
                if fingerprint == expected and self.level_of(coord) >= level:
                    return coord, sign
        return None

    def encode(self, sketch: List[List[int]]) -> str:
        """Serialize a sketch to a bit string."""
        return "".join(
            encode_fixed(value, ENTRY_BITS)
            for entry in sketch
            for value in entry
        )

    def decode(self, bits: str) -> List[List[int]]:
        """Inverse of :func:`encode`."""
        expected = self.levels * FIELDS_PER_LEVEL * ENTRY_BITS
        if len(bits) != expected:
            raise ValueError(f"expected {expected} bits, got {len(bits)}")
        values = [
            int(bits[k * ENTRY_BITS : (k + 1) * ENTRY_BITS], 2)
            for k in range(self.levels * FIELDS_PER_LEVEL)
        ]
        return [
            values[3 * level : 3 * level + 3] for level in range(self.levels)
        ]

    @property
    def payload_bits(self) -> int:
        return self.levels * FIELDS_PER_LEVEL * ENTRY_BITS


class AGMSketchComponents(NodeAlgorithm):
    """Randomized ConnectedComponents via broadcast l0-sketches (KT-1)."""

    def __init__(self, phases: Optional[int] = None):
        self._requested_phases = phases

    def setup(self, knowledge: InitialKnowledge) -> None:
        super().setup(knowledge)
        if knowledge.kt != 1:
            raise ValueError("AGMSketchComponents requires the KT-1 model")
        self._order: List[int] = sorted(knowledge.all_ids)
        self._pos: Dict[int, int] = {vid: k for k, vid in enumerate(self._order)}
        n = len(self._order)
        self._n = n
        self._phases = self._requested_phases or (math.ceil(math.log2(max(2, n))) + 3)
        self._spec_cache: Dict[int, SketchSpec] = {}
        spec0 = self._spec(0)
        self._rounds_per_phase = math.ceil(spec0.payload_bits / knowledge.bandwidth)
        self._total_rounds = self._phases * self._rounds_per_phase
        self._label: Dict[int, int] = {vid: vid for vid in self._order}
        self._incoming: Dict[int, List[str]] = {vid: [] for vid in self._order}
        self._done = False

    def _spec(self, phase: int) -> SketchSpec:
        if phase not in self._spec_cache:
            self._spec_cache[phase] = SketchSpec(self.knowledge.coin, phase, len(self.knowledge.all_ids))
        return self._spec_cache[phase]

    def _phase_and_offset(self, round_index: int) -> Tuple[int, int]:
        return divmod(round_index - 1, self._rounds_per_phase)

    def _my_sketch_bits(self, phase: int) -> str:
        cached = getattr(self, "_sketch_cache", None)
        if cached is not None and cached[0] == phase:
            return cached[1]
        bits = self._compute_sketch_bits(phase)
        self._sketch_cache = (phase, bits)
        return bits

    def _compute_sketch_bits(self, phase: int) -> str:
        spec = self._spec(phase)
        sketch = spec.empty_sketch()
        me = self._pos[self.knowledge.vertex_id]
        for nbr_id in self.knowledge.input_ports:
            other = self._pos[nbr_id]
            i, j = min(me, other), max(me, other)
            coord = edge_coordinate(i, j, self._n)
            spec.add_coordinate(sketch, coord, 1 if me == i else -1)
        return spec.encode(sketch)

    def broadcast(self, round_index: int) -> str:
        if self._done or round_index > self._total_rounds:
            return ""
        phase, offset = self._phase_and_offset(round_index)
        payload = self._my_sketch_bits(phase)
        b = self.knowledge.bandwidth
        return payload[offset * b : (offset + 1) * b]

    def receive(self, round_index: int, messages: Mapping[int, str]) -> None:
        if self._done or round_index > self._total_rounds:
            return
        for sender, bits in messages.items():
            self._incoming[sender].append(bits)
        phase, offset = self._phase_and_offset(round_index)
        if offset == self._rounds_per_phase - 1:
            self._finish_phase(phase)

    def _finish_phase(self, phase: int) -> None:
        spec = self._spec(phase)
        me = self.knowledge.vertex_id
        sketches: Dict[int, List[List[int]]] = {}
        for vid in self._order:
            if vid == me:
                sketches[vid] = spec.decode(self._my_sketch_bits(phase))
            else:
                bits = "".join(self._incoming[vid])[: spec.payload_bits]
                sketches[vid] = spec.decode(bits)
            self._incoming[vid] = []

        # sum sketches per component, recover one outgoing edge each
        component_sketch: Dict[int, List[List[int]]] = {}
        for vid in self._order:
            lab = self._label[vid]
            if lab in component_sketch:
                component_sketch[lab] = spec.combine(component_sketch[lab], sketches[vid])
            else:
                component_sketch[lab] = sketches[vid]

        uf = UnionFind(set(self._label.values()))
        merged_any = False
        for lab, sk in sorted(component_sketch.items()):
            recovered = spec.recover(sk)
            if recovered is None:
                continue
            coord, _sign = recovered
            i, j = coordinate_to_edge(coord, self._n)
            u, v = self._order[i], self._order[j]
            if self._label[u] != self._label[v]:
                uf.union(self._label[u], self._label[v])
                merged_any = True
        if merged_any:
            new_label: Dict[int, int] = {}
            for group in uf.components():
                rep = min(group)
                for lab in group:
                    new_label[lab] = rep
            self._label = {vid: new_label[lab] for vid, lab in self._label.items()}
        if phase == self._phases - 1:
            self._done = True

    def finished(self) -> bool:
        return self._done

    def output(self) -> int:
        return self._label[self.knowledge.vertex_id]


class AGMSketchConnectivity(AGMSketchComponents):
    """Decision variant: YES iff one component label remains."""

    def output(self) -> str:  # type: ignore[override]
        return YES if len(set(self._label.values())) == 1 else NO


def agm_components_factory(phases: Optional[int] = None) -> Callable[[], AGMSketchComponents]:
    return lambda: AGMSketchComponents(phases)


def agm_connectivity_factory(phases: Optional[int] = None) -> Callable[[], AGMSketchConnectivity]:
    return lambda: AGMSketchConnectivity(phases)


def agm_total_rounds(n: int, bandwidth: int, phases: Optional[int] = None) -> int:
    """Closed-form round count of the sketch algorithm."""
    levels = 2 * max(1, math.ceil(math.log2(max(2, n)))) + 2
    payload = levels * FIELDS_PER_LEVEL * ENTRY_BITS
    p = phases or (math.ceil(math.log2(max(2, n))) + 3)
    return p * math.ceil(payload / bandwidth)
