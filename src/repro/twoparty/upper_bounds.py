"""Trivial upper-bound protocols for Partition and PartitionComp.

Section 4 opens with the matching upper bound: "Alice sends all the
connected components induced by E_A to Bob", i.e. Alice ships her whole
partition, Bob joins locally -- O(n log n) bits. Together with
Corollary 2.4 this pins the deterministic communication complexity of
Partition at Theta(n log n).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.partitions.set_partition import SetPartition, joins_to_top
from repro.twoparty.protocol import ALICE, BOB, TwoPartyProtocol, Turn


def rgs_bit_width(n: int) -> int:
    """Bits per RGS entry: block labels are < n, so ceil(log2 n) (at least 1)."""
    return (max(2, n) - 1).bit_length()


def encode_partition(p: SetPartition) -> str:
    """Fixed-width encoding of a partition via its RGS: n * ceil(log n) bits.

    RGS labels are < n <= 2^w, so every label fits its w-bit field.
    """
    fmt = f"0{rgs_bit_width(p.n)}b"
    return "".join([format(label, fmt) for label in p.rgs()])


def decode_partition(n: int, bits: str) -> SetPartition:
    """Inverse of :func:`encode_partition`.

    Raises ValueError on a wrong length or on any character other than
    0/1 (``int(..., 2)`` alone would accept whitespace and underscores).
    """
    w = rgs_bit_width(n)
    if len(bits) != n * w:
        raise ValueError(f"expected {n * w} bits, got {len(bits)}")
    if bits.strip("01"):
        raise ValueError(f"not a bit string: {bits!r}")
    return SetPartition.from_rgs([int(bits[i : i + w], 2) for i in range(0, n * w, w)])


class TrivialPartitionProtocol(TwoPartyProtocol):
    """Alice sends P_A verbatim; Bob answers the Partition decision.

    Communication: n * ceil(log2 n) + 1 bits -- the O(n log n) upper bound
    the rank bound of Corollary 2.4 is tight against.
    """

    def __init__(self, n: int):
        self.n = n

    def next_speaker(self, turns: List[Turn]) -> Optional[str]:
        return [ALICE, BOB, None][len(turns)] if len(turns) < 3 else None

    def message(self, speaker: str, own_input: SetPartition, turns: List[Turn]) -> str:
        if speaker == ALICE:
            return encode_partition(own_input)
        pa = decode_partition(self.n, turns[0].bits)
        return "1" if joins_to_top(pa, own_input) else "0"

    def alice_output(self, alice_input: SetPartition, turns: List[Turn]) -> int:
        return 1 if turns[1].bits == "1" else 0

    def bob_output(self, bob_input: SetPartition, turns: List[Turn]) -> int:
        pa = decode_partition(self.n, turns[0].bits)
        return 1 if joins_to_top(pa, bob_input) else 0


class TrivialPartitionCompProtocol(TwoPartyProtocol):
    """Alice sends P_A; Bob sends back the join. Both output P_A ∨ P_B.

    Communication: 2 n ceil(log n) bits = Theta(n log n), matching the
    information-theoretic lower bound of Theorem 4.5.
    """

    def __init__(self, n: int):
        self.n = n

    def next_speaker(self, turns: List[Turn]) -> Optional[str]:
        return [ALICE, BOB][len(turns)] if len(turns) < 2 else None

    def message(self, speaker: str, own_input: SetPartition, turns: List[Turn]) -> str:
        if speaker == ALICE:
            return encode_partition(own_input)
        pa = decode_partition(self.n, turns[0].bits)
        return encode_partition(pa.join(own_input))

    def alice_output(self, alice_input: SetPartition, turns: List[Turn]) -> SetPartition:
        return decode_partition(self.n, turns[1].bits)

    def bob_output(self, bob_input: SetPartition, turns: List[Turn]) -> SetPartition:
        pa = decode_partition(self.n, turns[0].bits)
        return pa.join(bob_input)


class LossyPartitionCompProtocol(TrivialPartitionCompProtocol):
    """A deliberately erring PartitionComp protocol for the Theorem 4.5
    experiments: on a fixed fraction of Alice's inputs (selected by a hash
    of the input) Alice sends a fixed garbage partition instead of P_A.

    This realizes the "-error protocol weighted by the hard distribution"
    whose mutual information the information-theoretic argument still
    forces to be (1 - eps) * H(P_A) - ish.
    """

    def __init__(self, n: int, error_rate: float):
        super().__init__(n)
        if not 0 <= error_rate < 1:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self.error_rate = error_rate

    def _corrupted(self, p: SetPartition) -> bool:
        import hashlib

        digest = hashlib.sha256(repr(p).encode()).digest()
        return (int.from_bytes(digest[:8], "big") / 2**64) < self.error_rate

    def message(self, speaker: str, own_input: SetPartition, turns: List[Turn]) -> str:
        if speaker == ALICE and self._corrupted(own_input):
            return encode_partition(SetPartition.finest(self.n))
        return super().message(speaker, own_input, turns)
