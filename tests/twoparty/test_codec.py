"""The partition codec and Turn's bit-string check.

``decode_partition`` parses each w-bit field with ``int(field, 2)``,
which on its own would accept whitespace, underscores and signs; the
codec rejects any non-0/1 character up front, as ``Turn`` does.
"""

import pytest

from repro.errors import ProtocolError
from repro.partitions import enumerate_partitions
from repro.twoparty import (
    ALICE,
    Turn,
    decode_partition,
    encode_partition,
    rgs_bit_width,
)


@pytest.mark.parametrize("n", range(0, 7))
def test_round_trip_every_partition(n):
    w = rgs_bit_width(n)
    for p in enumerate_partitions(n):
        bits = encode_partition(p)
        assert len(bits) == n * w
        assert decode_partition(n, bits) == p


@pytest.mark.parametrize("n,bits", [(4, "0101"), (4, "0" * 9), (3, ""), (0, "0")])
def test_wrong_length_rejected(n, bits):
    with pytest.raises(ValueError):
        decode_partition(n, bits)


@pytest.mark.parametrize("token", [" 1", "1_0", "2", "+1", "-1"])
def test_non_bits_rejected(token):
    # Literally, and padded to a valid length with the token in one
    # 3-bit field, where int(field, 2) alone would parse " 10" / "1_0".
    n = 5
    padded = (token + "0" * 15)[:15]
    assert len(padded) == n * rgs_bit_width(n)
    for bits in (token, padded):
        with pytest.raises(ValueError):
            decode_partition(n, bits)


@pytest.mark.parametrize("bits", ["0 1", "012", "1_0", " "])
def test_turn_rejects_non_bits(bits):
    with pytest.raises(ProtocolError):
        Turn(ALICE, bits)


def test_turn_accepts_bits():
    assert Turn(ALICE, "").bits == ""
    assert Turn(ALICE, "0110").bits == "0110"
