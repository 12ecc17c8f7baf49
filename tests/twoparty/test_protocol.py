"""Tests for the two-party protocol framework."""

import pytest

from repro.errors import ProtocolError
from repro.twoparty import (
    ALICE,
    BOB,
    ProtocolResult,
    Turn,
    TwoPartyProtocol,
    decode_int,
    encode_int,
)
from repro.twoparty.protocol import transcript_bits


class PingPong(TwoPartyProtocol):
    """Alice sends her number, Bob replies with the XOR; both output it."""

    def next_speaker(self, turns):
        return [ALICE, BOB][len(turns)] if len(turns) < 2 else None

    def message(self, speaker, own_input, turns):
        if speaker == ALICE:
            return encode_int(own_input, 8)
        return encode_int(own_input ^ decode_int(turns[0].bits), 8)

    def alice_output(self, alice_input, turns):
        return decode_int(turns[1].bits)

    def bob_output(self, bob_input, turns):
        return bob_input ^ decode_int(turns[0].bits)


class Forever(TwoPartyProtocol):
    max_turns = 50

    def next_speaker(self, turns):
        return ALICE

    def message(self, speaker, own_input, turns):
        return "0"

    def alice_output(self, a, t):
        return None

    def bob_output(self, b, t):
        return None


class TestTurn:
    def test_valid(self):
        t = Turn(ALICE, "0101")
        assert t.speaker == ALICE and t.bits == "0101"

    def test_bad_speaker(self):
        with pytest.raises(ProtocolError):
            Turn("carol", "0")

    def test_bad_bits(self):
        with pytest.raises(ProtocolError):
            Turn(BOB, "2")


class TestRun:
    def test_ping_pong(self):
        res = PingPong().run(0b1100, 0b1010)
        assert res.alice_output == res.bob_output == 0b0110
        assert res.total_bits == 16
        assert res.alice_bits == 8 and res.bob_bits == 8
        assert res.rounds == 2

    def test_transcript_string(self):
        res = PingPong().run(1, 2)
        s = res.transcript_string()
        assert s.startswith("a:") and "|b:" in s

    @pytest.mark.parametrize("inputs", [(1, 2), (0, 0), (255, 255)])
    def test_transcript_bits_reads_total_bits(self, inputs):
        res = PingPong().run(*inputs)
        assert transcript_bits(res.transcript_string()) == res.total_bits == 16
        assert transcript_bits(ProtocolResult([], None, None).transcript_string()) == 0

    def test_non_terminating_protocol_caught(self):
        with pytest.raises(ProtocolError):
            Forever().run(None, None)


class TestEncoding:
    def test_round_trip(self):
        assert decode_int(encode_int(37, 7)) == 37

    def test_width_enforced(self):
        with pytest.raises(ProtocolError):
            encode_int(128, 7)

    def test_empty_decodes_zero(self):
        assert decode_int("") == 0
