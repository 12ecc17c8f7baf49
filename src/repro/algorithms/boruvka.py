"""Boruvka-style ConnectedComponents in BCC(log n), KT-1.

This is the classic comparator from the upper-bound literature the paper
cites ([JN17]-era bounds before the O(log n / log log n) refinement): with
bandwidth b = Theta(log n), components can be merged in O(log n) Boruvka
phases of two rounds each.

Phase structure (all arithmetic on IDs):

1. **Label round**: every vertex broadcasts its current component label
   (W bits). Since KT-1 port labels are sender IDs, afterwards every
   vertex knows label(u) for every u.
2. **Proposal round**: every vertex broadcasts the minimum *foreign* label
   among its input-graph neighbors (or stays silent if all neighbors share
   its label). Every vertex now sees every proposal and deterministically
   computes, for each component, the minimum foreign label proposed by any
   of its members; merging those component pairs (transitively) is a local
   computation that every vertex performs identically.

Every component with any outgoing edge merges each phase, so the number of
non-final components at least halves: at most ceil(log2 n) + 1 phases. The
algorithm terminates the phase after every vertex stays silent, which every
vertex observes simultaneously.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.core.algorithm import NO, YES, NodeAlgorithm
from repro.core.knowledge import InitialKnowledge
from repro.algorithms.bit_codec import decode_fixed, encode_fixed, id_bit_width
from repro.graphs.components import UnionFind


class BoruvkaComponents(NodeAlgorithm):
    """ConnectedComponents in O(log n) rounds of BCC(Theta(log n)), KT-1."""

    def setup(self, knowledge: InitialKnowledge) -> None:
        super().setup(knowledge)
        if knowledge.kt != 1:
            raise ValueError("BoruvkaComponents requires the KT-1 model")
        self._width = id_bit_width(max(knowledge.all_ids))
        if knowledge.bandwidth < self._width:
            raise ValueError(
                f"bandwidth {knowledge.bandwidth} < ID width {self._width}; "
                f"run this algorithm in BCC(b) with b >= ceil(log2 max_id)"
            )
        self._label = knowledge.vertex_id
        self._labels: Dict[int, int] = {}  # vertex ID -> current label
        self._done = False

    # rounds alternate: odd = label round, even = proposal round
    def broadcast(self, round_index: int) -> str:
        if self._done:
            return ""
        if round_index % 2 == 1:
            return encode_fixed(self._label, self._width)
        proposal = self._my_proposal()
        return "" if proposal is None else encode_fixed(proposal, self._width)

    def _my_proposal(self) -> Optional[int]:
        foreign = [
            self._labels[nbr]
            for nbr in self.knowledge.input_ports
            if self._labels.get(nbr, self._label) != self._label
        ]
        return min(foreign) if foreign else None

    def receive(self, round_index: int, messages: Mapping[int, str]) -> None:
        if self._done:
            return
        if round_index % 2 == 1:
            self._labels = {
                sender: decode_fixed(bits) for sender, bits in messages.items() if bits
            }
            self._labels[self.knowledge.vertex_id] = self._label
            return
        # proposal round: fold in every vertex's proposal, merge locally
        proposals: Dict[int, int] = {}  # component label -> min foreign label
        my_proposal = self._my_proposal()
        all_pairs = list(messages.items()) + [(self.knowledge.vertex_id, None)]
        for sender, bits in all_pairs:
            if sender == self.knowledge.vertex_id:
                value = my_proposal
            else:
                value = decode_fixed(bits) if bits else None
            if value is None:
                continue
            label = self._labels[sender]
            if label not in proposals or value < proposals[label]:
                proposals[label] = value
        if not proposals:
            self._done = True
            return
        uf = UnionFind(set(self._labels.values()))
        for label, target in proposals.items():
            uf.union(label, target)
        # new label of a group = minimum old label in the group
        new_label: Dict[int, int] = {}
        for group in uf.components():
            rep = min(group)
            for lab in group:
                new_label[lab] = rep
        self._label = new_label[self._label]
        self._labels = {v: new_label[lab] for v, lab in self._labels.items()}

    def finished(self) -> bool:
        return self._done

    def output(self) -> int:
        return self._label


class BoruvkaConnectivity(BoruvkaComponents):
    """Decision variant: YES iff a single component label remains."""

    def output(self) -> str:  # type: ignore[override]
        labels = set(self._labels.values()) if self._labels else {self._label}
        return YES if len(labels) == 1 else NO


def boruvka_factory() -> Callable[[], BoruvkaComponents]:
    return BoruvkaComponents


def boruvka_connectivity_factory() -> Callable[[], BoruvkaConnectivity]:
    return BoruvkaConnectivity


def boruvka_max_rounds(n: int) -> int:
    """A safe round budget: 2 * (ceil(log2 n) + 2) phases' worth of rounds."""
    import math

    return 2 * (math.ceil(math.log2(max(2, n))) + 2)
