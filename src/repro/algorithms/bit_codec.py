"""Bit-serialization helpers for multi-round b-bit broadcasting.

BCC algorithms constantly need to pace a fixed-width binary payload out at
b bits per round, and to reassemble payloads (with the silence character
available as an out-of-band "no payload" marker). These helpers keep that
logic in one place.
"""

from __future__ import annotations

import math
from typing import List, Sequence


def id_bit_width(max_id: int) -> int:
    """Bits needed for a fixed-width encoding of IDs in [0, max_id]."""
    if max_id < 0:
        raise ValueError(f"max_id must be >= 0, got {max_id}")
    return max(1, max_id.bit_length())


def encode_fixed(value: int, width: int) -> str:
    """Fixed-width big-endian binary string."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def decode_fixed(bits: str) -> int:
    """Inverse of :func:`encode_fixed`."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a non-empty bit string: {bits!r}")
    return int(bits, 2)


def schedule_bits(payload: str, bandwidth: int, round_index: int) -> str:
    """The chunk of ``payload`` to broadcast in 1-based ``round_index``.

    Returns the empty string (silence) once the payload is exhausted.
    """
    start = (round_index - 1) * bandwidth
    return payload[start : start + bandwidth]


def rounds_needed(payload_bits: int, bandwidth: int) -> int:
    """Rounds to pace out a payload at b bits per round."""
    return math.ceil(payload_bits / bandwidth) if payload_bits else 0


class ChunkAssembler:
    """Reassembles per-round chunks (possibly with trailing silence) into a
    payload string, tracking completeness against an expected width."""

    __slots__ = ("_expected", "_parts")

    def __init__(self, expected_bits: int):
        self._expected = expected_bits
        self._parts: List[str] = []

    def feed(self, chunk: str) -> None:
        self._parts.append(chunk)

    @property
    def bits(self) -> str:
        return "".join(self._parts)

    def complete(self) -> bool:
        return len(self.bits) >= self._expected

    def value(self) -> int:
        if not self.complete():
            raise ValueError("payload incomplete")
        return decode_fixed(self.bits[: self._expected])


def pack_symbols(symbols: Sequence[str]) -> str:
    """Encode a sequence of {0, 1, silence} characters at 2 bits each.

    Used by the Section 4.3 simulation protocol: silence -> ``00``,
    '0' -> ``10``, '1' -> ``11``.
    """
    mapping = {"": "00", "0": "10", "1": "11"}
    try:
        return "".join(mapping[s] for s in symbols)
    except KeyError as exc:
        raise ValueError(f"cannot pack symbol {exc.args[0]!r}") from exc


def unpack_symbols(bits: str, count: int) -> List[str]:
    """Inverse of :func:`pack_symbols` for ``count`` symbols."""
    if len(bits) != 2 * count:
        raise ValueError(f"expected {2 * count} bits, got {len(bits)}")
    mapping = {"00": "", "10": "0", "11": "1"}
    out = []
    for i in range(count):
        pair = bits[2 * i : 2 * i + 2]
        if pair not in mapping:
            raise ValueError(f"invalid symbol code {pair!r}")
        out.append(mapping[pair])
    return out
