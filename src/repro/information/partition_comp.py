"""The information-theoretic PartitionComp experiment (Theorem 4.5).

Hard distribution mu: P_A uniform over all B_n set partitions of [n],
P_B fixed to the finest partition (1)(2)...(n). Then P_A ∨ P_B = P_A, so
any correct protocol transcript determines P_A -- forcing

    |Pi| >= H(Pi(P_A, P_B)) >= I(P_A; Pi) = H(P_A) - H(P_A | Pi)
         >= (1 - eps) * H(P_A) = (1 - eps) * log2 B_n = Omega(n log n).

This module evaluates every quantity in that chain *exactly* on concrete
protocols: the protocol runs once on every input in the support of mu
(the sampler's shard fold over all B_n RGS), the joint distribution of
(P_A, Pi) is formed, and entropies are computed from it. Combined with
the Section 4.3 simulation (t-round BCC algorithm => O(t n)-bit
protocol), the measured information yields the finite-n version of the
Omega(log n) round bound for ConnectedComponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.information.entropy import (
    conditional_entropy,
    entropy,
    marginal_x,
    marginal_y,
    mutual_information,
)
from repro.information.sampling import fold_runs, joint_of
from repro.partitions.bell import bell_number
from repro.partitions.enumeration import enumerate_rgs
from repro.twoparty.protocol import TwoPartyProtocol, transcript_bits


@dataclass(frozen=True)
class PartitionCompReport:
    """All quantities of the Theorem 4.5 chain, exactly evaluated."""

    n: int
    input_entropy: float  # H(P_A) = log2 B_n
    transcript_entropy: float  # H(Pi)
    residual_entropy: float  # H(P_A | Pi)
    information: float  # I(P_A; Pi)
    max_transcript_bits: int  # |Pi|
    error_rate: float  # mu-fraction of inputs answered incorrectly

    def chain_holds(self, tolerance: float = 1e-9) -> bool:
        """The inequality chain |Pi| >= H(Pi) >= I >= H(P_A) - H(P_A|Pi)."""
        return (
            self.max_transcript_bits + tolerance >= self.transcript_entropy
            and self.transcript_entropy + tolerance >= self.information
            and abs(
                self.information - (self.input_entropy - self.residual_entropy)
            ) < 1e-6
        )


def evaluate_protocol(protocol: TwoPartyProtocol, n: int) -> PartitionCompReport:
    """Run a PartitionComp protocol over the entire hard distribution and
    evaluate the Theorem 4.5 quantities exactly.

    The hard distribution is the sampler's fold
    (:func:`repro.information.sampling.fold_runs`) over every RGS of
    [n] once, each weighing 1/B_n.
    """
    inputs = [tuple(rgs) for rgs in enumerate_rgs(n)]  # raises for n < 0
    counts, errors, _done, _mapped = fold_runs(protocol, n, inputs, memo=False)
    joint = joint_of(counts, len(inputs))
    # The mu-mass of the wrong inputs, added 1/B_n at a time: errors / B_n
    # rounds differently in the last bits.
    weight = 1.0 / len(inputs)
    error_rate = 0.0
    for _ in range(errors):
        error_rate += weight
    return PartitionCompReport(
        n=n,
        input_entropy=entropy(marginal_x(joint)),
        transcript_entropy=entropy(marginal_y(joint)),
        residual_entropy=conditional_entropy(joint),
        information=mutual_information(joint),
        max_transcript_bits=max(transcript_bits(y) for _x, y in counts),
        error_rate=error_rate,
    )


def information_lower_bound(n: int, error_rate: float) -> float:
    """The bound of Theorem 4.5's proof: I >= (1 - eps) * H(P_A).

    (The proof bounds H(P_A | Pi) <= eps * H(P_A): conditioned on a
    correct transcript the residual entropy is zero, and erring
    transcripts carry at most eps of the mass.)
    """
    return (1.0 - error_rate) * math.log2(bell_number(n))


def implied_round_lower_bound(n: int, information_bits: float) -> float:
    """Rounds >= I / (bits per simulated round) via the Section 4.3
    simulation of a KT-1 BCC(1) ConnectedComponents algorithm, which
    costs 2 * 4n bits per round on G(P_A, P_B)."""
    return information_bits / (8 * n)
