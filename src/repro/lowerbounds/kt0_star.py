"""The Theorem 3.5 engine: the warm-up pigeonhole lower bound, executable.

Closed-form side: after t rounds of any deterministic BCC(1) algorithm,
each directed edge carries a 2t-character label over {0, 1, ⊥}, so the
floor(n/3)-edge independent set S splits into at most 3^{2t} label
classes; the largest class S' has |S'| >= |S| / 3^{2t}, all crossings
within S' are indistinguishable from the central instance, and the forced
error under the star distribution is C(|S'|, 2) / (2 C(|S|, 2)).

Operational side: :func:`fool_algorithm` runs a *concrete* algorithm,
reads the labels off real transcripts, constructs the fooled instances,
verifies operational indistinguishability, and reports the error actually
achieved against the star distribution -- the adversary made executable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from repro.core.algorithm import YES, AlgorithmFactory
from repro.core.decision import decision_of_run
from repro.core.randomness import PublicCoin
from repro.core.simulator import Simulator
from repro.crossing.active import edge_label
from repro.crossing.crossing import cross
from repro.crossing.independent import independent_edge_set_on_cycle
from repro.crossing.indistinguishability import indistinguishable_runs
from repro.instances.cycles import one_cycle_instance


def label_class_count(t: int) -> int:
    """Upper bound on distinct 2t-character labels: 3^{2t}."""
    return 3 ** (2 * t)


def guaranteed_class_size(n: int, t: int) -> int:
    """|S'| >= |S| / 3^{2t} with |S| = floor(n/3) (pigeonhole)."""
    s = n // 3
    return math.ceil(s / label_class_count(t))


def theorem_3_5_error_bound(n: int, t: int) -> float:
    """The forced error of any t-round deterministic algorithm against the
    star distribution: C(|S'|, 2) / (2 C(|S|, 2)), assuming the algorithm
    answers the half-mass central instance correctly (it must, once the
    permissible error is below 1/2)."""
    s = n // 3
    s_prime = guaranteed_class_size(n, t)
    if s < 2 or s_prime < 2:
        return 0.0
    return math.comb(s_prime, 2) / (2 * math.comb(s, 2))


def minimum_rounds_for_error(n: int, epsilon: float) -> int:
    """The smallest t whose guaranteed error drops below epsilon: every
    algorithm with fewer rounds errs with probability >= epsilon.

    With epsilon = 1/n^c this is the Omega(c log n) statement of
    Theorem 3.5.
    """
    t = 0
    while theorem_3_5_error_bound(n, t) >= epsilon:
        t += 1
        if t > 8 * int(math.log(max(2, n)) / math.log(3)) + 8:
            break
    return t


@dataclass
class FoolingReport:
    """What the operational adversary achieved against one algorithm."""

    n: int
    rounds: int
    independent_set_size: int
    largest_class_size: int
    label: str
    fooled_pairs: int
    indistinguishable_pairs: int
    center_decision: str
    achieved_error: float

    @property
    def all_pairs_indistinguishable(self) -> bool:
        return self.fooled_pairs == self.indistinguishable_pairs


def fool_algorithm(
    simulator: Simulator,
    factory: AlgorithmFactory,
    n: int,
    rounds: int,
    coin: Optional[PublicCoin] = None,
    verify_operationally: bool = True,
) -> FoolingReport:
    """Run the Theorem 3.5 adversary against a concrete algorithm.

    Steps: run the algorithm on the canonical one-cycle instance; label
    the independent set S from the real transcripts; take the largest
    label class S'; every crossing within S' is indistinguishable from the
    center, so the algorithm's decision there equals its center decision
    -- and since those crossings are NO instances, each one the algorithm
    "solves" as YES is an error. The achieved error is measured against
    the star distribution.
    """
    center = one_cycle_instance(n, kt=0)
    run_center = simulator.run(center, factory, rounds, coin=coin)
    s_edges = independent_edge_set_on_cycle(n)

    by_label: dict = {}
    for e in s_edges:
        by_label.setdefault(edge_label(run_center, e), []).append(e)
    label, s_prime = max(by_label.items(), key=lambda kv: (len(kv[1]), kv[0]))

    fooled = list(combinations(s_prime, 2))
    indist = 0
    if verify_operationally:
        for e1, e2 in fooled:
            crossed = cross(center, e1, e2)
            run_crossed = simulator.run(crossed, factory, rounds, coin=coin)
            if indistinguishable_runs(simulator, run_center, run_crossed, rounds):
                indist += 1
    else:
        indist = len(fooled)

    center_decision = decision_of_run(run_center)
    total_pairs = math.comb(len(s_edges), 2)
    if center_decision == YES:
        # errs on every fooled NO instance
        err = (len(fooled) / total_pairs) * 0.5 if total_pairs else 0.0
    else:
        # errs on the half-mass center itself
        err = 0.5
    return FoolingReport(
        n=n,
        rounds=rounds,
        independent_set_size=len(s_edges),
        largest_class_size=len(s_prime),
        label=label,
        fooled_pairs=len(fooled),
        indistinguishable_pairs=indist,
        center_decision=center_decision,
        achieved_error=err,
    )
