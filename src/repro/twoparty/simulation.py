"""The Section 4.3 reduction: simulating a KT-1 BCC algorithm by 2 parties.

Given an r-round KT-1 BCC(1) algorithm A, Alice (holding P_A) and Bob
(holding P_B) simulate A on the reduction graph G(P_A, P_B): Alice hosts
the vertices in A ∪ L (or just L in the TwoPartition variant), Bob hosts
B ∪ R (or R). Because vertex IDs follow the fixed public scheme and every
hosted vertex's input edges touch only the host's own input (plus the
input-independent rungs l_i - r_i), each party can construct its hosted
vertices' complete KT-1 initial knowledge from its own input alone.

Each simulated round costs one message from each party: the characters
(from {0, 1, ⊥}) broadcast by its hosted vertices, in increasing ID order,
packed at 2 bits per character. The position of a character in the message
identifies the sender, so both parties can extend every hosted vertex's
transcript. Total communication: Theta(n) bits per simulated round, hence
an r-round algorithm yields an O(r * n)-bit protocol -- the inequality
that converts the Omega(n log n) communication bounds into Omega(log n)
round bounds (Theorem 4.4 / Theorem 4.5).

The implementation is deliberately *replay-based*: a party's message for
turn k is a pure function of (its own input, the transcript so far), which
makes the information constraint structural rather than merely asserted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.algorithm import YES, AlgorithmFactory, NodeAlgorithm
from repro.core.knowledge import InitialKnowledge
from repro.core.randomness import PublicCoin
from repro.algorithms.bit_codec import pack_symbols, unpack_symbols
from repro.costs.ledger import get_ledger
from repro.errors import ProtocolError
from repro.obs.metrics import get_registry
from repro.partitions.set_partition import SetPartition
from repro.twoparty.protocol import ALICE, BOB, TwoPartyProtocol, Turn
from repro.twoparty.reductions import paper_id

#: Reduction variants.
PARTITION = "partition"  # A/L/R/B graph (Connectivity)
TWO_PARTITION = "two_partition"  # L/R graph (MultiCycle), 2-regular


def _hosted_structure(
    variant: str, side: str, partition: SetPartition
) -> Tuple[int, List[int], Dict[int, List[int]], List[int]]:
    """The hosted vertices of one party, from its own input alone.

    Returns (total vertex count N, all IDs sorted, hosted vertex ID ->
    sorted neighbor IDs, hosted IDs sorted).
    """
    n = partition.n
    if variant == PARTITION:
        all_ids = sorted(paper_id(k, i, n) for k in "alrb" for i in range(1, n + 1))
        kinds = ("a", "l") if side == ALICE else ("b", "r")
        column = "l" if side == ALICE else "r"
        owner = "a" if side == ALICE else "b"
        neighbors: Dict[int, List[int]] = {}
        for i in range(1, n + 1):
            neighbors[paper_id(owner, i, n)] = []
            rung = paper_id("r" if column == "l" else "l", i, n)
            neighbors[paper_id(column, i, n)] = [rung]
        used = 0
        for block in partition.blocks:
            used += 1
            owner_id = paper_id(owner, used, n)
            for j in block:
                col_id = paper_id(column, j, n)
                neighbors[owner_id].append(col_id)
                neighbors[col_id].append(owner_id)
        anchor = paper_id(column, n, n)
        for k in range(used + 1, n + 1):
            owner_id = paper_id(owner, k, n)
            neighbors[owner_id].append(anchor)
            neighbors[anchor].append(owner_id)
        hosted = sorted(neighbors)
        return 4 * n, all_ids, {v: sorted(nbrs) for v, nbrs in neighbors.items()}, hosted
    if variant == TWO_PARTITION:
        if not partition.is_perfect_matching():
            raise ProtocolError("TwoPartition simulation needs perfect-matching inputs")
        all_ids = sorted(paper_id(k, i, n) for k in "lr" for i in range(1, n + 1))
        column = "l" if side == ALICE else "r"
        other = "r" if side == ALICE else "l"
        neighbors = {
            paper_id(column, i, n): [paper_id(other, i, n)] for i in range(1, n + 1)
        }
        for i, j in partition.blocks:
            neighbors[paper_id(column, i, n)].append(paper_id(column, j, n))
            neighbors[paper_id(column, j, n)].append(paper_id(column, i, n))
        hosted = sorted(neighbors)
        return 2 * n, all_ids, {v: sorted(nbrs) for v, nbrs in neighbors.items()}, hosted
    raise ProtocolError(f"unknown reduction variant {variant!r}")


class BCCSimulationProtocol(TwoPartyProtocol):
    """Alice/Bob simulation of a KT-1 BCC(b) algorithm on G(P_A, P_B).

    Parameters
    ----------
    variant:
        ``"partition"`` or ``"two_partition"``.
    factory:
        The node-algorithm factory being simulated (a KT-1 algorithm).
    rounds:
        Number r of BCC rounds to simulate.
    bandwidth:
        The BCC bandwidth b (1 for all of the paper's statements).
    mode:
        ``"decision"``: after the simulation each party sends one extra bit
        (the AND of its hosted vertices' YES/NO outputs) so that both
        output the system decision. ``"components"``: no extra bits; each
        party reads the join P_A ∨ P_B off its hosted column's labels
        (the PartitionComp output).
    coin:
        The shared public coin handed to every simulated vertex.
    """

    def __init__(
        self,
        variant: str,
        factory: AlgorithmFactory,
        rounds: int,
        bandwidth: int = 1,
        mode: str = "decision",
        coin: Optional[PublicCoin] = None,
        metrics=None,
    ):
        if mode not in ("decision", "components"):
            raise ProtocolError(f"unknown mode {mode!r}")
        self.variant = variant
        self.factory = factory
        self.rounds = rounds
        self.bandwidth = bandwidth
        self.mode = mode
        self.coin = coin if coin is not None else PublicCoin()
        self._metrics = metrics

    # ------------------------------------------------------------------
    # protocol tree
    # ------------------------------------------------------------------
    def next_speaker(self, turns: List[Turn]) -> Optional[str]:
        total = 2 * self.rounds + (2 if self.mode == "decision" else 0)
        if len(turns) >= total:
            return None
        return ALICE if len(turns) % 2 == 0 else BOB

    def message(self, speaker: str, own_input: SetPartition, turns: List[Turn]) -> str:
        k = len(turns)
        if k < 2 * self.rounds:
            t = k // 2 + 1  # the BCC round being simulated
            nodes, _outputs = self._replay(speaker, own_input, turns, upto_round=t - 1)
            symbols = [node.broadcast(t) for _vid, node in nodes]
            bits = pack_symbols(symbols)
            self._record_turn(
                speaker, bits, simulated_round=t, closes_round=(k % 2 == 1), turns=turns
            )
            return bits
        # final decision bits
        nodes, outputs = self._replay(speaker, own_input, turns, upto_round=self.rounds)
        bits = "1" if all(out == YES for out in outputs) else "0"
        self._record_turn(speaker, bits, simulated_round=None, closes_round=False, turns=turns)
        return bits

    def _record_turn(
        self,
        speaker: str,
        bits: str,
        simulated_round: Optional[int],
        closes_round: bool,
        turns: List[Turn],
    ) -> None:
        """Per-turn bit accounting (no-op unless a registry/ledger is active)."""
        ledger = get_ledger()
        if ledger is not None:
            # Ledger vertices are the two parties; the "round" is the BCC
            # round this turn simulates (0 for the decision exchange), and
            # the phase separates simulation traffic from decision bits.
            ledger.record_bits(
                speaker,
                simulated_round if simulated_round is not None else 0,
                len(bits),
                phase="simulate" if simulated_round is not None else "decision",
            )
        metrics = self._metrics if self._metrics is not None else get_registry()
        if metrics is None:
            return
        metrics.counter("twoparty.turns").inc()
        metrics.counter("twoparty.bits_sent").inc(len(bits))
        metrics.histogram("twoparty.bits_per_turn").observe(len(bits))
        if simulated_round is not None and closes_round:
            # this turn completes BCC round ``simulated_round``: its cost
            # is this message plus the other party's message for the round
            metrics.counter("twoparty.simulated_rounds").inc()
            round_bits = len(bits) + len(turns[-1].bits)
            metrics.histogram("twoparty.bits_per_simulated_round").observe(round_bits)

    # ------------------------------------------------------------------
    # replay machinery
    # ------------------------------------------------------------------
    def _replay(
        self,
        side: str,
        own_input: SetPartition,
        turns: List[Turn],
        upto_round: int,
    ) -> Tuple[List[Tuple[int, NodeAlgorithm]], List[Any]]:
        """Reconstruct this party's hosted node states after ``upto_round``
        simulated rounds, using only (own input, transcript)."""
        total_n, all_ids, neighbors, hosted = _hosted_structure(
            self.variant, side, own_input
        )
        id_set = set(all_ids)
        nodes: List[Tuple[int, NodeAlgorithm]] = []
        for vid in hosted:
            node = self.factory()
            node.setup(
                InitialKnowledge(
                    vertex_id=vid,
                    n=total_n,
                    bandwidth=self.bandwidth,
                    kt=1,
                    ports=tuple(sorted(id_set - {vid})),
                    input_ports=frozenset(neighbors[vid]),
                    all_ids=tuple(all_ids),
                    coin=self.coin,
                )
            )
            nodes.append((vid, node))

        half = total_n // 2
        for t in range(1, upto_round + 1):
            own_symbols = [node.broadcast(t) for _vid, node in nodes]
            alice_turn = turns[2 * (t - 1)]
            bob_turn = turns[2 * (t - 1) + 1]
            if side == ALICE:
                other_symbols = unpack_symbols(bob_turn.bits, half)
                other_ids = self._hosted_ids(BOB, all_ids, own_input)
                own_ids = [vid for vid, _ in nodes]
            else:
                other_symbols = unpack_symbols(alice_turn.bits, half)
                other_ids = self._hosted_ids(ALICE, all_ids, own_input)
                own_ids = [vid for vid, _ in nodes]
            message_of: Dict[int, str] = dict(zip(own_ids, own_symbols))
            message_of.update(dict(zip(other_ids, other_symbols)))
            for vid, node in nodes:
                received = {u: message_of[u] for u in all_ids if u != vid}
                node.receive(t, received)
        metrics = self._metrics if self._metrics is not None else get_registry()
        if metrics is not None:
            metrics.counter("twoparty.replays").inc()
            metrics.counter("twoparty.replayed_node_rounds").inc(
                upto_round * len(nodes)
            )
        # outputs are only well-defined once the full simulation has run
        outputs = (
            [node.output() for _vid, node in nodes]
            if upto_round >= self.rounds
            else []
        )
        return nodes, outputs

    def _hosted_ids(self, side: str, all_ids: List[int], own_input: SetPartition) -> List[int]:
        """The other party's hosted IDs -- derivable from the public ID
        scheme alone (no knowledge of the other input needed)."""
        n = own_input.n
        if self.variant == PARTITION:
            kinds = ("a", "l") if side == ALICE else ("b", "r")
        else:
            kinds = ("l",) if side == ALICE else ("r",)
        return sorted(paper_id(k, i, n) for k in kinds for i in range(1, n + 1))

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def alice_output(self, alice_input: SetPartition, turns: List[Turn]) -> Any:
        return self._output(ALICE, alice_input, turns)

    def bob_output(self, bob_input: SetPartition, turns: List[Turn]) -> Any:
        return self._output(BOB, bob_input, turns)

    def _output(self, side: str, own_input: SetPartition, turns: List[Turn]) -> Any:
        if self.mode == "decision":
            alice_bit = turns[2 * self.rounds].bits
            bob_bit = turns[2 * self.rounds + 1].bits
            return 1 if alice_bit == "1" and bob_bit == "1" else 0
        # components mode: group the own column's labels into a partition
        _nodes, outputs = self._replay(side, own_input, turns, upto_round=self.rounds)
        n = own_input.n
        column = "l" if side == ALICE else "r"
        hosted = self._hosted_ids(side, [], own_input)
        label_of: Dict[int, Any] = dict(zip(hosted, outputs))
        blocks: Dict[Any, List[int]] = {}
        for i in range(1, n + 1):
            lab = label_of[paper_id(column, i, n)]
            blocks.setdefault(lab, []).append(i)
        return SetPartition(n, blocks.values())


def simulation_bits_per_round(variant: str, n: int) -> int:
    """Exact per-simulated-round communication: 2 bits per hosted vertex
    per party = 2 * N bits total, N = 4n or 2n."""
    total = 4 * n if variant == PARTITION else 2 * n
    return 2 * total


def rounds_lower_bound_from_cc(cc_bits: float, variant: str, n: int) -> float:
    """Invert the simulation cost: any algorithm needs at least
    cc_bits / (bits per simulated round) BCC rounds (Theorem 4.4's
    arithmetic, made explicit)."""
    return cc_bits / simulation_bits_per_round(variant, n)
