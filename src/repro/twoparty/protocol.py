"""Two-party communication protocols with exact bit accounting.

The KT-1 lower bounds (Section 4) are reductions to 2-party communication
complexity, so the library carries a small protocol framework: a
:class:`TwoPartyProtocol` runs Alice and Bob in alternating *turns*, each
turn transferring a bit-string, and records the full transcript. The
quantity of interest is ``total_bits`` -- Corollaries 2.4/4.2 lower-bound
it by log2 of a matrix rank, and the Section 4.3 simulation shows a
t-round BCC(1) algorithm yields a protocol with O(t * n) bits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.errors import ProtocolError

#: Who speaks: Alice or Bob.
ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class Turn:
    """One message of a protocol run."""

    speaker: str
    bits: str

    def __post_init__(self) -> None:
        if self.speaker not in (ALICE, BOB):
            raise ProtocolError(f"unknown speaker {self.speaker!r}")
        if self.bits.strip("01"):
            raise ProtocolError(f"message {self.bits!r} is not a bit string")


@dataclass
class ProtocolResult:
    """Everything observable about one protocol execution."""

    turns: List[Turn]
    alice_output: Any
    bob_output: Any

    @property
    def total_bits(self) -> int:
        return sum(len(t.bits) for t in self.turns)

    @property
    def alice_bits(self) -> int:
        return sum(len(t.bits) for t in self.turns if t.speaker == ALICE)

    @property
    def bob_bits(self) -> int:
        return sum(len(t.bits) for t in self.turns if t.speaker == BOB)

    @property
    def rounds(self) -> int:
        return len(self.turns)

    def transcript_string(self) -> str:
        """The transcript as a single delimited string (used as the random
        variable Pi in the information-theoretic argument of Theorem 4.5)."""
        return "|".join(f"{t.speaker[0]}:{t.bits}" for t in self.turns)


def transcript_bits(transcript: str) -> int:
    """The ``total_bits`` of a run, read off its
    :meth:`ProtocolResult.transcript_string`: speaker letters and
    delimiters are never ``0`` or ``1``."""
    return transcript.count("0") + transcript.count("1")


class TwoPartyProtocol(ABC):
    """A deterministic protocol, specified by per-turn message functions.

    Subclasses implement four methods. :meth:`next_speaker` names who
    speaks next from the transcript alone, or None when the conversation
    is over; :meth:`message` returns that party's bits; after the last
    turn :meth:`alice_output` / :meth:`bob_output` are read. The
    framework enforces that each party's messages depend only on its own
    input and the transcript -- ``message`` receives exactly one input,
    selected by whose turn it is.

    Contract: :meth:`run` is a pure function of the two inputs and the
    instance's attributes (``vars(self)``, all hashable). The sampled
    Theorem 4.5 estimator relies on it to run each distinct input once
    per process (:mod:`repro.information.sampling`); a side effect of a
    run, such as a metrics counter, is not repeated for a memoized input.
    """

    #: Safety valve against non-terminating protocols.
    max_turns: int = 100_000

    @abstractmethod
    def next_speaker(self, turns: List[Turn]) -> Optional[str]:
        """Whose turn it is, or None when the protocol has ended.

        May depend only on the transcript (the standard requirement that
        the protocol tree's structure is common knowledge).
        """

    @abstractmethod
    def message(self, speaker: str, own_input: Any, turns: List[Turn]) -> str:
        """The bits the speaker sends, from its own input + transcript."""

    @abstractmethod
    def alice_output(self, alice_input: Any, turns: List[Turn]) -> Any:
        """Alice's output from her input and the transcript."""

    @abstractmethod
    def bob_output(self, bob_input: Any, turns: List[Turn]) -> Any:
        """Bob's output from his input and the transcript."""

    def run(self, alice_input: Any, bob_input: Any) -> ProtocolResult:
        """Execute the protocol."""
        turns: List[Turn] = []
        for _ in range(self.max_turns):
            speaker = self.next_speaker(turns)
            if speaker is None:
                break
            own = alice_input if speaker == ALICE else bob_input
            turns.append(Turn(speaker, self.message(speaker, own, turns)))
        else:
            raise ProtocolError(f"protocol exceeded {self.max_turns} turns")
        return ProtocolResult(
            turns=turns,
            alice_output=self.alice_output(alice_input, turns),
            bob_output=self.bob_output(bob_input, turns),
        )


def encode_int(value: int, width: int) -> str:
    """Fixed-width big-endian binary encoding."""
    if value < 0 or value >= (1 << width):
        raise ProtocolError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def decode_int(bits: str) -> int:
    """Inverse of :func:`encode_int`."""
    return int(bits, 2) if bits else 0
