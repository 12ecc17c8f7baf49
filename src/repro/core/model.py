"""Model configuration for the b-bit Broadcast Congested Clique.

A :class:`BCCModel` pins down the two parameters the paper varies:

* ``bandwidth`` -- the number of bits each vertex may broadcast per round
  (``b`` in the paper's BCC(b); the lower bounds are stated for ``b = 1``).
* ``kt`` -- the initial-knowledge level, 0 or 1, using the KT-0 / KT-1
  terminology of Awerbuch et al. In KT-0 the n-1 communication ports at a
  vertex are arbitrarily numbered 1..n-1 and carry no information about the
  vertex at the other end; in KT-1 every port is labelled with the ID of the
  vertex at the other end and every vertex knows all n IDs.

Messages are strings over ``{'0', '1'}`` of length at most ``bandwidth``;
the empty string encodes silence (the paper's ``⊥`` character). For
``bandwidth == 1`` this gives exactly the three-character alphabet
``{0, 1, ⊥}`` used in the paper's transcripts and edge labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AlgorithmContractError

#: The message that encodes silence (the paper's bottom character).
SILENT = ""

#: Printable form of the silence character, used in labels and reports.
SILENT_CHAR = "⊥"  # ⊥


@dataclass(frozen=True)
class BCCModel:
    """An instantiation of the BCC(b) model at a given knowledge level."""

    bandwidth: int = 1
    kt: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.kt not in (0, 1):
            raise ValueError(f"kt must be 0 or 1, got {self.kt}")

    def validate_message(self, message: str) -> str:
        """Check a broadcast message against the model and return it.

        Raises :class:`AlgorithmContractError` if the message is not a
        0/1-string of length at most ``bandwidth``.
        """
        if not isinstance(message, str):
            raise AlgorithmContractError(
                f"broadcast messages must be str, got {type(message).__name__}"
            )
        if len(message) > self.bandwidth:
            raise AlgorithmContractError(
                f"message {message!r} exceeds bandwidth b={self.bandwidth}"
            )
        if message.strip("01"):
            raise AlgorithmContractError(
                f"message {message!r} contains characters outside {{0, 1}}"
            )
        return message

    def alphabet_size(self) -> int:
        """Number of distinct per-round messages, counting silence.

        For b = 1 this is 3 (the ``{0, 1, ⊥}`` alphabet); in general it is
        ``2^(b+1) - 1`` (all 0/1 strings of length 0..b).
        """
        return 2 ** (self.bandwidth + 1) - 1


def message_to_char(message: str) -> str:
    """Render a 1-bit message as one of '0', '1', or the ⊥ character."""
    return SILENT_CHAR if message == SILENT else message


def message_bits(message: str) -> int:
    """Channel cost of one broadcast, in bits.

    Silence costs 0 whether it appears in its on-channel form (the empty
    string) or its rendered form (the ⊥ glyph) -- a crashed vertex's
    forced silences must never be charged the width of the character
    used to *display* them.
    """
    return 0 if message == SILENT or message == SILENT_CHAR else len(message)


#: The canonical model in which all of the paper's lower bounds are stated.
BCC1_KT0 = BCCModel(bandwidth=1, kt=0)
BCC1_KT1 = BCCModel(bandwidth=1, kt=1)
