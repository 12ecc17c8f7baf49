"""Tests for the Theorem 4.5 engine (PartitionComp information bound)."""

import math

import pytest

from repro.information import (
    evaluate_protocol,
    implied_round_lower_bound,
    information_lower_bound,
)
from repro.partitions import SetPartition, bell_number, enumerate_partitions, log2_bell
from repro.twoparty import LossyPartitionCompProtocol, TrivialPartitionCompProtocol
from repro.twoparty.protocol import TwoPartyProtocol


class TestHardDistribution:
    def test_uniform_over_bell(self, monkeypatch):
        """mu's P_A marginal: each of the B_n partitions once, P_B finest."""
        seen = []
        run = TwoPartyProtocol.run

        def recording_run(self, alice_input, bob_input):
            seen.append((alice_input, bob_input))
            return run(self, alice_input, bob_input)

        monkeypatch.setattr(TwoPartyProtocol, "run", recording_run)
        report = evaluate_protocol(TrivialPartitionCompProtocol(4), 4)
        assert sorted(repr(pa) for pa, _pb in seen) == sorted(
            repr(pa) for pa in enumerate_partitions(4)
        )
        assert {pb for _pa, pb in seen} == {SetPartition.finest(4)}
        assert report.input_entropy == pytest.approx(math.log2(bell_number(4)), abs=1e-12)

    def test_empty_ground_set(self):
        report = evaluate_protocol(TrivialPartitionCompProtocol(0), 0)
        assert (report.input_entropy, report.information, report.error_rate) == (0.0, 0.0, 0.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            evaluate_protocol(TrivialPartitionCompProtocol(-1), -1)


class TestErrorFreeProtocol:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_information_equals_input_entropy(self, n):
        """For a correct protocol on the hard distribution, the transcript
        determines P_A, so I(P_A; Pi) = H(P_A) = log2 B_n exactly."""
        report = evaluate_protocol(TrivialPartitionCompProtocol(n), n)
        assert report.error_rate == 0.0
        assert report.information == pytest.approx(log2_bell(n), abs=1e-9)
        assert report.residual_entropy == pytest.approx(0.0, abs=1e-9)

    def test_chain_of_inequalities(self):
        report = evaluate_protocol(TrivialPartitionCompProtocol(5), 5)
        assert report.chain_holds()
        assert report.max_transcript_bits >= report.information

    @pytest.mark.parametrize("protocol", [
        TrivialPartitionCompProtocol(5), LossyPartitionCompProtocol(5, 0.4),
    ])
    def test_max_transcript_bits_is_the_longest_run(self, protocol):
        finest = SetPartition.finest(5)
        longest = max(protocol.run(pa, finest).total_bits for pa in enumerate_partitions(5))
        assert evaluate_protocol(protocol, 5).max_transcript_bits == longest

    def test_transcript_bits_dominate_entropy(self):
        report = evaluate_protocol(TrivialPartitionCompProtocol(4), 4)
        assert report.max_transcript_bits >= report.transcript_entropy


class TestLossyProtocol:
    def test_information_respects_eps_bound(self):
        """Theorem 4.5's robustness: even with error eps, the protocol
        carries at least (1 - eps) H(P_A) bits about P_A."""
        n = 5
        report = evaluate_protocol(LossyPartitionCompProtocol(n, 0.25), n)
        assert report.error_rate > 0
        assert report.information >= information_lower_bound(n, report.error_rate) - 1e-9

    def test_error_rate_is_the_mu_mass_of_wrong_inputs(self):
        """1/B_n added once per wrong input (18 of B_5 = 52 here), the
        figure `information` prints; 18 / 52 differs in the last bits."""
        report = evaluate_protocol(LossyPartitionCompProtocol(5, 0.3), 5)
        assert report.error_rate == 0.34615384615384603 != 18 / 52

    def test_more_error_less_information(self):
        n = 5
        low = evaluate_protocol(LossyPartitionCompProtocol(n, 0.1), n)
        high = evaluate_protocol(LossyPartitionCompProtocol(n, 0.6), n)
        assert high.information < low.information


class TestRoundBoundArithmetic:
    def test_information_lower_bound_values(self):
        assert information_lower_bound(5, 0.0) == pytest.approx(math.log2(52))
        assert information_lower_bound(5, 0.5) == pytest.approx(0.5 * math.log2(52))

    def test_implied_round_bound(self):
        # I bits over 8n-bit rounds
        assert implied_round_lower_bound(10, 160.0) == pytest.approx(2.0)

    def test_omega_log_shape(self):
        """The implied bound grows like log n (the Theorem 4.5 statement)."""
        from repro.analysis import fit_logarithmic

        ns = [8, 16, 32, 64, 128]
        bounds = [
            implied_round_lower_bound(n, information_lower_bound(n, 1 / 3))
            for n in ns
        ]
        fit = fit_logarithmic(ns, bounds)
        assert fit.slope > 0
        assert fit.r_squared > 0.98
