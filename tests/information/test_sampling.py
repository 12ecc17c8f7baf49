"""Tests for sampled mutual-information estimation."""

import math
import random

import pytest

from repro.cli import main
from repro.errors import BudgetExceededError
from repro.information import (
    clear_run_memo,
    estimate_protocol_information,
    evaluate_protocol,
    partition_comp,
)
from repro.information.sampling import SAMPLING_SHARD_UNITS, fold_runs
from repro.partitions import SetPartition, bell_number, log2_bell
from repro.partitions.enumeration import random_rgs
from repro.resilience import Budget
from repro.twoparty import LossyPartitionCompProtocol, TrivialPartitionCompProtocol
from repro.twoparty.protocol import TwoPartyProtocol


class AliceErrsOnTwoBlocks(TrivialPartitionCompProtocol):
    """Bob always outputs P_A; Alice outputs the finest partition
    instead whenever P_A has exactly two blocks."""

    def alice_output(self, alice_input, turns):
        if alice_input.num_blocks == 2:
            return SetPartition.finest(self.n)
        return super().alice_output(alice_input, turns)


class TestSampledEstimation:
    def test_converges_to_exact_small_n(self):
        """At n = 4 (B_4 = 15) a few thousand samples pin the exact value."""
        n = 4
        exact = evaluate_protocol(TrivialPartitionCompProtocol(n), n)
        rng = random.Random(1)
        report = estimate_protocol_information(
            TrivialPartitionCompProtocol(n), n, samples=4000, rng=rng
        )
        assert report.information_estimate == pytest.approx(exact.information, abs=0.1)
        assert report.distinct_inputs_seen == bell_number(n)
        assert report.error_rate_estimate == 0.0
        assert not report.saturated

    def test_larger_n_than_exact_enumeration(self):
        """n = 9 (B_9 = 21147): enumeration-free estimation still tracks
        the Theta(n log n) input entropy from below."""
        n = 9
        rng = random.Random(2)
        report = estimate_protocol_information(
            TrivialPartitionCompProtocol(n), n, samples=3000, rng=rng
        )
        assert report.true_input_entropy == pytest.approx(math.log2(21147))
        # the plug-in estimate is capped near log2(samples): saturation flag
        assert report.saturated
        assert report.information_estimate <= math.log2(3000) + 0.1
        assert report.information_estimate > 8.0  # still large

    def test_lossy_protocol_error_estimated(self):
        n = 5
        rng = random.Random(3)
        report = estimate_protocol_information(
            LossyPartitionCompProtocol(n, 0.4), n, samples=2500, rng=rng
        )
        assert 0.2 < report.error_rate_estimate < 0.6
        exact = evaluate_protocol(LossyPartitionCompProtocol(n, 0.4), n)
        assert report.information_estimate == pytest.approx(exact.information, abs=0.2)

    def test_correction_is_small_and_nonnegative_regime(self):
        n = 4
        rng = random.Random(4)
        report = estimate_protocol_information(
            TrivialPartitionCompProtocol(n), n, samples=3000, rng=rng
        )
        assert abs(report.miller_madow_correction) < 0.05
        assert report.corrected_information >= 0

    def test_alice_only_errors_count(self):
        """An input is wrong when either party's output is not P_A, in the
        sampler as in the exact evaluation."""
        n, samples = 4, 600
        rng = random.Random(8)
        drawn = [random_rgs(n, rng) for _ in range(samples)]
        report = estimate_protocol_information(
            AliceErrsOnTwoBlocks(n), n, samples, random.Random(8)
        )
        wrong = sum(max(rgs) == 1 for rgs in drawn)
        assert wrong > 0
        assert report.error_rate_estimate == wrong / samples
        exact = evaluate_protocol(AliceErrsOnTwoBlocks(n), n)
        assert exact.error_rate == pytest.approx(7 / 15)  # S(4, 2) = 7 of B_4 = 15

    def test_population_counts_transcript_bits(self):
        """The ``transcript_bits`` sketch holds each run's ``total_bits``
        (16 for the trivial protocol at n = 4), not the length of the
        delimited transcript string."""
        report = estimate_protocol_information(
            TrivialPartitionCompProtocol(4), 4, 50, random.Random(1)
        )
        bits = report.population["transcript_bits"]
        assert (bits["count"], bits["min"], bits["max"]) == (50, 16.0, 16.0)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            estimate_protocol_information(
                TrivialPartitionCompProtocol(3), 3, samples=1, rng=random.Random(0)
            )


# ----------------------------------------------------------------------
# the per-process run memo
# ----------------------------------------------------------------------
@pytest.fixture
def protocol_runs(monkeypatch):
    """Cold run memo; yields the list of protocols run, one per call."""
    calls = []
    run = TwoPartyProtocol.run

    def counting_run(self, alice_input, bob_input):
        calls.append(self)
        return run(self, alice_input, bob_input)

    monkeypatch.setattr(TwoPartyProtocol, "run", counting_run)
    clear_run_memo()
    yield calls
    clear_run_memo()


def _estimate(protocol, n=6, samples=3000, seed=1, **kwargs):
    return estimate_protocol_information(
        protocol, n, samples, random.Random(seed), **kwargs
    )


def _cli_json(capsys, argv):
    assert main(["sampling", *argv, "--json"]) == 0
    return capsys.readouterr().out


class TestRunMemo:
    def test_one_run_per_distinct_input(self, protocol_runs):
        rng = random.Random(5)
        drawn = {random_rgs(7, rng) for _ in range(8000)}
        first = _estimate(TrivialPartitionCompProtocol(7), 7, 8000, 5, workers=1)
        assert len(protocol_runs) == len(drawn) <= bell_number(7)
        second = _estimate(TrivialPartitionCompProtocol(7), 7, 8000, 5, workers=1)
        assert len(protocol_runs) == len(drawn)
        assert second == first
        assert second.population == first.population

    def test_exact_fold_runs_each_input_once(self, protocol_runs):
        protocols = [TrivialPartitionCompProtocol(7), LossyPartitionCompProtocol(7, 0.3)]
        first = [evaluate_protocol(p, 7) for p in protocols]
        per_protocol = [sum(c is p for c in protocol_runs) for p in protocols]
        assert per_protocol == [bell_number(7)] * 2
        # The exact fold keeps no memo: a second evaluation runs them all
        # again, and a sampler that follows starts cold.
        assert [evaluate_protocol(p, 7) for p in protocols] == first
        assert len(protocol_runs) == 4 * bell_number(7)
        report = _estimate(protocols[0], 7, 2000, 9)
        assert len(protocol_runs) == 4 * bell_number(7) + report.distinct_inputs_seen

    def test_protocols_never_share_entries(self, protocol_runs):
        protocols = [
            TrivialPartitionCompProtocol(7),
            LossyPartitionCompProtocol(7, 0.2),
            LossyPartitionCompProtocol(7, 0.3),
        ]
        warm = [_estimate(p, 7, 2000, 9) for p in protocols]
        # Each protocol ran every input it drew: none was served from
        # another protocol's entries.
        per_protocol = [sum(c is p for c in protocol_runs) for p in protocols]
        assert per_protocol == [warm[0].distinct_inputs_seen] * 3
        for protocol, report in zip(protocols, warm):
            clear_run_memo()
            cold = _estimate(protocol, 7, 2000, 9)
            assert cold == report
            assert cold.population == report.population
        errors = [report.error_rate_estimate for report in warm]
        assert errors[0] == 0.0 < errors[1] < errors[2]

    def test_warm_equals_cold(self, protocol_runs, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        argv = ["--n", "6", "--samples", "3000", "--seed", "1", "--eps", "0.2"]
        protocol = LossyPartitionCompProtocol(6, 0.2)
        cold = _estimate(protocol)
        clear_run_memo()
        cold_json = _cli_json(capsys, argv)
        runs = len(protocol_runs)
        warm = _estimate(protocol)
        warm_json = _cli_json(capsys, argv)
        assert len(protocol_runs) == runs
        assert warm == cold
        assert warm.population == cold.population
        assert warm_json == cold_json

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_boundaries_under_warm_memo(self, protocol_runs, workers):
        protocol = TrivialPartitionCompProtocol(6)
        plain = _estimate(protocol, samples=1500)
        with pytest.raises(BudgetExceededError) as exc_info:
            _estimate(
                protocol, samples=1500, workers=workers,
                budget=Budget(max_units=1500, check_interval=1),
            )
        assert exc_info.value.partial == plain
        done = _estimate(
            protocol, samples=1500, workers=workers,
            budget=Budget(max_units=1501, check_interval=1),
        )
        assert done == plain
        assert done.population == plain.population

    def test_partial_report_warm_equals_cold(self, protocol_runs):
        protocol = LossyPartitionCompProtocol(6, 0.2)
        budget_units = SAMPLING_SHARD_UNITS + 60

        def partial():
            with pytest.raises(BudgetExceededError) as exc_info:
                _estimate(
                    protocol, budget=Budget(max_units=budget_units, check_interval=1)
                )
            return exc_info.value.partial

        cold = partial()
        _estimate(protocol)  # every drawn input is now memoized
        runs = len(protocol_runs)
        warm = partial()
        assert len(protocol_runs) == runs
        assert warm == cold
        assert warm.samples == budget_units


def test_exact_fold_at_two_workers_equals_one(pool_at_once, monkeypatch):
    """The exact evaluation's fold, pooled at workers 2, gives the same
    report as the in-process fold (n = 7: two shards)."""
    protocol = LossyPartitionCompProtocol(7, 0.3)
    serial = evaluate_protocol(protocol, 7)
    monkeypatch.setattr(
        partition_comp, "fold_runs",
        lambda *args, **kwargs: fold_runs(*args, workers=2, **kwargs),
    )
    pooled = evaluate_protocol(protocol, 7)
    assert pool_at_once
    assert pooled == serial
