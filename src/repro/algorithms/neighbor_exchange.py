"""Neighborhood-exchange algorithms: O(Delta log n) rounds in BCC(1).

These are the upper bounds that make the paper's Omega(log n) lower bounds
*tight* on uniformly sparse inputs (Section 1.1's closing remark): on
2-regular graphs -- the paper's own TwoCycle/MultiCycle instance family --
they solve Connectivity and ConnectedComponents in Theta(log n) rounds of
BCC(1), in both the KT-0 and KT-1 models.

The idea is elementary but exactly matches the model's information flow:

* (KT-0 only) **ID phase**, W rounds: every vertex broadcasts its own ID,
  fixed-width W bits, one bit per round. Afterwards every vertex knows the
  ID behind each of its ports -- it has bootstrapped to KT-1 knowledge.
* **Neighbor phase**, Delta * W rounds: every vertex broadcasts the IDs of
  its input-graph neighbors (sorted, one W-bit slot per neighbor, silent
  slots for missing neighbors -- silence is distinguishable from '0' in
  the three-character alphabet). Every vertex hears every list together
  with the sender's ID and reconstructs the entire input graph, then
  answers locally.

Total rounds: (Delta + 1) * W in KT-0 and Delta * W in KT-1, where W is
the ID width -- Theta(log n) for constant maximum degree Delta.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.algorithm import NO, YES, NodeAlgorithm
from repro.core.knowledge import InitialKnowledge
from repro.algorithms.bit_codec import encode_fixed, id_bit_width
from repro.graphs.components import UnionFind


class NeighborExchange(NodeAlgorithm):
    """The neighborhood-exchange algorithm; output mode set by subclass.

    Parameters
    ----------
    max_degree:
        The promised maximum degree Delta of the input graph (2 for the
        paper's cycle families). The schedule is common knowledge, so all
        vertices must be constructed with the same value.
    id_bits:
        Fixed ID width W. In KT-1 it may be left None (derived from the
        globally known ID set); in KT-0 the width is part of the common
        schedule and defaults to the width of 4n - 1, which covers both
        the canonical 0..n-1 IDs and the paper's 4n reduction IDs.
    """

    def __init__(self, max_degree: int = 2, id_bits: Optional[int] = None):
        if max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {max_degree}")
        self._max_degree = max_degree
        self._id_bits = id_bits

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    def setup(self, knowledge: InitialKnowledge) -> None:
        super().setup(knowledge)
        if self._id_bits is not None:
            self._width = self._id_bits
        elif knowledge.kt == 1:
            self._width = id_bit_width(max(knowledge.all_ids))
        else:
            self._width = id_bit_width(4 * knowledge.n - 1)
        self._id_phase_rounds = self._width if knowledge.kt == 0 else 0
        self._total_rounds = self._id_phase_rounds + self._max_degree * self._width
        # port -> sender ID (known at once in KT-1, learned in phase 1 in KT-0)
        self._port_ids: Dict[int, int] = (
            {p: p for p in knowledge.ports} if knowledge.kt == 1 else {}
        )
        self._received_bits: Dict[int, List[str]] = {p: [] for p in knowledge.ports}
        self._rounds_seen = 0
        self._graph_edges: Optional[Set[Tuple[int, int]]] = None
        self._all_ids: Optional[Set[int]] = (
            set(knowledge.all_ids) if knowledge.kt == 1 else None
        )

    def _my_payload(self) -> str:
        """The full bit schedule this vertex broadcasts, silence-padded.

        Returns a string over {'0','1','s'} where 's' marks a silent round.
        """
        parts: List[str] = []
        if self.knowledge.kt == 0:
            parts.append(encode_fixed(self.knowledge.vertex_id, self._width))
        if self.knowledge.kt == 1:
            neighbor_ids = sorted(self.knowledge.input_ports)
        else:
            # in KT-0 a vertex knows its input ports but not neighbor IDs;
            # it must wait for phase 1 before it can *name* neighbors.
            neighbor_ids = None
        if neighbor_ids is not None:
            for slot in range(self._max_degree):
                if slot < len(neighbor_ids):
                    parts.append(encode_fixed(neighbor_ids[slot], self._width))
                else:
                    parts.append("s" * self._width)
        return "".join(parts)

    def broadcast(self, round_index: int) -> str:
        if round_index > self._total_rounds:
            return ""
        if self.knowledge.kt == 1:
            payload = self._my_payload()
            char = payload[round_index - 1]
            return "" if char == "s" else char
        # KT-0: phase 1 is the own-ID broadcast
        if round_index <= self._id_phase_rounds:
            own = encode_fixed(self.knowledge.vertex_id, self._width)
            return own[round_index - 1]
        # phase 2: neighbor IDs become available after phase 1 completes
        offset = round_index - self._id_phase_rounds - 1
        slot, bit = divmod(offset, self._width)
        neighbor_ids = self._neighbor_ids_kt0()
        if slot >= len(neighbor_ids):
            return ""
        return encode_fixed(neighbor_ids[slot], self._width)[bit]

    def _neighbor_ids_kt0(self) -> List[int]:
        return sorted(
            self._port_ids[p] for p in self.knowledge.input_ports if p in self._port_ids
        )

    def receive(self, round_index: int, messages: Mapping[int, str]) -> None:
        if round_index > self._total_rounds:
            return
        self._rounds_seen = round_index
        for port, msg in messages.items():
            self._received_bits[port].append(msg)
        if self.knowledge.kt == 0 and round_index == self._id_phase_rounds:
            all_ids = set()
            for port, bits in self._received_bits.items():
                sender = int("".join(bits[: self._width]), 2)
                self._port_ids[port] = sender
                all_ids.add(sender)
            all_ids.add(self.knowledge.vertex_id)
            self._all_ids = all_ids
        if round_index == self._total_rounds:
            self._reconstruct()

    def _reconstruct(self) -> None:
        """Rebuild the entire input graph from the heard neighbor lists."""
        start = self._id_phase_rounds
        edges: Set[Tuple[int, int]] = set()
        for port, bits in self._received_bits.items():
            sender = self._port_ids[port]
            for slot in range(self._max_degree):
                chunk = bits[start + slot * self._width : start + (slot + 1) * self._width]
                if len(chunk) < self._width or "" in chunk:
                    continue  # silent slot: no neighbor
                neighbor = int("".join(chunk), 2)
                edges.add((min(sender, neighbor), max(sender, neighbor)))
        # own edges (needed in KT-0, where the vertex itself learns its
        # neighbor IDs only in phase 1; harmless duplication in KT-1)
        if self.knowledge.kt == 1:
            own_neighbors = sorted(self.knowledge.input_ports)
        else:
            own_neighbors = self._neighbor_ids_kt0()
        me = self.knowledge.vertex_id
        for u in own_neighbors:
            edges.add((min(me, u), max(me, u)))
        self._graph_edges = edges

    def finished(self) -> bool:
        return self._graph_edges is not None

    # ------------------------------------------------------------------
    # reconstructed-graph queries for the output subclasses
    # ------------------------------------------------------------------
    def _components(self) -> Optional[UnionFind]:
        """Components of the reconstructed graph, or None if the run was
        truncated before the exchange completed (in which case the output
        methods fall back to a fixed guess -- the behavior a lower-bound
        adversary exploits)."""
        if self._graph_edges is None or self._all_ids is None:
            return None
        uf = UnionFind(self._all_ids)
        for u, v in self._graph_edges:
            uf.union(u, v)
        return uf

    def output(self):  # pragma: no cover - overridden
        raise NotImplementedError


class NeighborExchangeConnectivity(NeighborExchange):
    """Decision output: YES iff the reconstructed graph is connected.

    If the execution was truncated before the schedule completed, the
    vertex guesses YES (any fixed guess works; the crossing adversary
    fools truncated runs either way).
    """

    def output(self) -> str:
        uf = self._components()
        if uf is None:
            return YES
        return YES if uf.component_count() == 1 else NO


class NeighborExchangeComponents(NeighborExchange):
    """Labelling output: the minimum ID in this vertex's component.

    A truncated vertex outputs its own ID (the round-0 guess).
    """

    def output(self) -> int:
        uf = self._components()
        mine = self.knowledge.vertex_id
        if uf is None:
            return mine
        members = [x for x in self._all_ids if uf.connected(x, mine)]
        return min(members)


def neighbor_exchange_rounds(kt: int, max_degree: int, id_bits: int) -> int:
    """Closed-form round count: (Delta + [kt == 0]) * W."""
    return (max_degree + (1 if kt == 0 else 0)) * id_bits


def connectivity_factory(
    max_degree: int = 2, id_bits: Optional[int] = None
) -> Callable[[], NeighborExchangeConnectivity]:
    """Factory of factories for the Connectivity decision variant."""
    return lambda: NeighborExchangeConnectivity(max_degree, id_bits)


def components_factory(
    max_degree: int = 2, id_bits: Optional[int] = None
) -> Callable[[], NeighborExchangeComponents]:
    """Factory of factories for the ConnectedComponents variant."""
    return lambda: NeighborExchangeComponents(max_degree, id_bits)
