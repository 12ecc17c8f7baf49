"""Tests for the BCC model configuration and message alphabet."""

import pytest

from repro.core import BCC1_KT0, BCC1_KT1, SILENT, SILENT_CHAR, BCCModel, message_to_char
from repro.errors import AlgorithmContractError


class TestModelValidation:
    def test_defaults(self):
        m = BCCModel()
        assert m.bandwidth == 1 and m.kt == 0

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            BCCModel(bandwidth=0)

    def test_bad_kt(self):
        with pytest.raises(ValueError):
            BCCModel(kt=2)

    def test_canonical_models(self):
        assert BCC1_KT0.kt == 0 and BCC1_KT1.kt == 1
        assert BCC1_KT0.bandwidth == BCC1_KT1.bandwidth == 1

    def test_frozen(self):
        with pytest.raises(Exception):
            BCC1_KT0.bandwidth = 2  # type: ignore[misc]


class TestMessageValidation:
    def test_accepts_silence(self):
        assert BCC1_KT0.validate_message(SILENT) == ""

    def test_accepts_single_bits(self):
        assert BCC1_KT0.validate_message("0") == "0"
        assert BCC1_KT0.validate_message("1") == "1"

    def test_rejects_too_long(self):
        with pytest.raises(AlgorithmContractError):
            BCC1_KT0.validate_message("01")

    def test_rejects_bad_characters(self):
        with pytest.raises(AlgorithmContractError):
            BCC1_KT0.validate_message("x")

    def test_rejects_non_string(self):
        with pytest.raises(AlgorithmContractError):
            BCC1_KT0.validate_message(1)  # type: ignore[arg-type]

    @pytest.mark.parametrize("message", ["0x1", "1 0", "2", "\u00e9"])
    def test_rejects_any_character_outside_01(self, message):
        with pytest.raises(AlgorithmContractError) as excinfo:
            BCCModel(bandwidth=4).validate_message(message)
        assert str(excinfo.value) == (
            f"message {message!r} contains characters outside {{0, 1}}"
        )

    @pytest.mark.parametrize("message", ["", "0", "1"])
    def test_accepts_silence_and_single_bits(self, message):
        assert BCCModel(bandwidth=4).validate_message(message) == message

    def test_wide_bandwidth(self):
        m = BCCModel(bandwidth=4)
        assert m.validate_message("0101") == "0101"
        with pytest.raises(AlgorithmContractError):
            m.validate_message("01010")


class TestAlphabet:
    def test_alphabet_size_b1(self):
        # {0, 1, silence}
        assert BCC1_KT0.alphabet_size() == 3

    def test_alphabet_size_b2(self):
        # {"", "0", "1", "00", "01", "10", "11"}
        assert BCCModel(bandwidth=2).alphabet_size() == 7

    def test_message_to_char(self):
        assert message_to_char("") == SILENT_CHAR
        assert message_to_char("0") == "0"
        assert message_to_char("1") == "1"
