"""Per-vertex transcripts of a BCC execution.

After t rounds, the transcript of a vertex consists of the at most ``t * b``
bits it sent and the at most ``(n - 1) * t * b`` bits it received, *along
with the ports they were received from* (Section 1.2). The transcript plus
the initial knowledge is the vertex's *state*, and two instances are
indistinguishable to an algorithm after t rounds exactly when every vertex
has the same state in both runs (the property exercised by Lemma 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from repro.core.model import SILENT, SILENT_CHAR, message_bits, message_to_char


def _round_key(sent: str, received: Mapping[int, str]) -> tuple:
    """Canonical hashable form of one round: ``(sent, sorted received)``."""
    return (sent, tuple(sorted(received.items())))


@dataclass(frozen=True)
class RoundRecord:
    """What one vertex sent and received in one round.

    ``received`` maps *port label* -> message; silence is the empty string.
    """

    sent: str
    received: Mapping[int, str]

    def received_key(self) -> Tuple[Tuple[int, str], ...]:
        """Canonical hashable form of the received map."""
        return tuple(sorted(self.received.items()))

    def comparable(self) -> tuple:
        return _round_key(self.sent, self.received)


class Transcript:
    """One vertex's rounds, stored as two columns.

    ``sent[t - 1]`` is the message the vertex broadcast in round t and
    ``received[t - 1]`` the port -> message map it got in that round. The
    simulator appends to both lists directly, once per round; a
    :class:`RoundRecord` is built only when :meth:`record` asks for one.
    The other readers work on the columns.
    """

    __slots__ = ("sent", "received")

    def __init__(self) -> None:
        self.sent: List[str] = []
        self.received: List[Mapping[int, str]] = []

    def append(self, record: RoundRecord) -> None:
        """Add one round, given as a record, to the two columns."""
        self.sent.append(record.sent)
        self.received.append(record.received)

    @property
    def rounds(self) -> int:
        return len(self.sent)

    def record(self, round_index: int) -> RoundRecord:
        """The record of round ``round_index`` (1-based)."""
        if not 1 <= round_index <= len(self.sent):
            raise IndexError(
                f"round {round_index} not in transcript of {len(self.sent)} rounds"
            )
        return RoundRecord(
            sent=self.sent[round_index - 1], received=self.received[round_index - 1]
        )

    def sent_sequence(self) -> Tuple[str, ...]:
        """The messages this vertex broadcast, in round order.

        This is exactly the sequence ``x`` (or ``y``) in the paper's notion
        of an *active edge*: the directed edge (v, u) is active with respect
        to (x, y) iff v's sent sequence is x and u's is y.
        """
        return tuple(self.sent)

    def sent_string(self) -> str:
        """Sent sequence rendered over the {0, 1, ⊥} alphabet."""
        return "".join(map(message_to_char, self.sent))

    def comparable(self) -> tuple:
        """Hashable form of the entire transcript, for state comparison."""
        return tuple(map(_round_key, self.sent, self.received))

    def prefix_comparable(self, t: int) -> tuple:
        """Hashable form of the first ``t`` rounds of the transcript."""
        return tuple(map(_round_key, self.sent[:t], self.received[:t]))

    def bits_sent(self) -> int:
        """Total number of bits this vertex broadcast.

        Silence counts 0 in **both** encodings -- the on-channel empty
        string and the rendered ⊥ glyph -- so a transcript rebuilt from a
        rendered form (replay tooling, fault reports) agrees with the
        live one, and a crashed vertex's forced silences never inflate
        the total by the display width of ⊥.
        """
        return sum(map(message_bits, self.sent))

    def silence_count(self) -> int:
        """Rounds in which this vertex broadcast nothing (the paper's ⊥)."""
        return sum(1 for sent in self.sent if sent == SILENT or sent == SILENT_CHAR)

    def bits_received(self) -> int:
        """Total number of bits received across all ports and rounds."""
        return sum(
            sum(message_bits(m) for m in received.values()) for received in self.received
        )

    def __len__(self) -> int:
        return len(self.sent)

    def __repr__(self) -> str:
        return f"Transcript(rounds={len(self.sent)}, sent={self.sent_string()!r})"


def sent_label(head_transcript: Transcript, tail_transcript: Transcript) -> str:
    """The 2t-character label of a directed edge (Theorem 3.5).

    Given a t-round execution, the label of a directed edge (v, u)
    concatenates the t characters broadcast by the head v and then the t
    characters broadcast by the tail u, each over the {0, 1, ⊥} alphabet.
    """
    return head_transcript.sent_string() + tail_transcript.sent_string()
