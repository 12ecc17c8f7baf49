"""The Theorem 3.1 engine: constant-error forced mistakes, measured.

Theorem 3.1's combinatorial core: under the uniform V1/V2 distribution,
a t-round algorithm's behavior partitions the instance space into
indistinguishability classes; every class containing both one-cycle and
two-cycle instances forces errors on one side of it. At enumerable n the
library measures this *exactly* for any concrete algorithm:

* for every one-cycle cover, run the algorithm on its canonical KT-0
  instance and collect every crossing pair satisfying Lemma 3.4's premise
  (equal head sequences, equal tail sequences);
* each such crossing yields a two-cycle instance on which the algorithm
  provably outputs whatever it output on the one-cycle instance;
* the forced error is then evaluated against a distribution placing half
  the mass on the one-cycle instances and half on the generated two-cycle
  instances.

A silent or otherwise symmetric algorithm is fooled on *every* crossing,
forcing error 1/2; an algorithm that breaks symmetry needs enough rounds
to shrink the premise-holding pairs -- the measured decay of forced error
with t is the finite-n shadow of the Omega(log n) bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from repro.core.algorithm import YES, AlgorithmFactory
from repro.core.decision import decision_of_run
from repro.core.instance import BCCInstance
from repro.core.randomness import PublicCoin
from repro.core.simulator import Simulator
from repro.crossing.crossing import cross
from repro.crossing.independent import are_independent
from repro.instances.enumeration import enumerate_one_cycle_covers


@dataclass
class ForcedErrorReport:
    """Exact forced-error accounting for one algorithm at one (n, t)."""

    n: int
    rounds: int
    one_cycle_count: int
    yes_on_one_cycles: int  # how many one-cycle instances got YES
    fooled_two_cycle_instances: int  # crossings with the premise holding
    forced_error: float

    @property
    def errs_on_no_side(self) -> bool:
        return self.yes_on_one_cycles > 0


def _premise_pairs(run, instance: BCCInstance) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """All independent directed pairs whose Lemma 3.4 premise holds and
    whose crossing disconnects (produces a TwoCycle NO instance)."""
    seqs = {v: run.transcripts[v].sent_sequence() for v in range(instance.n)}
    directed = []
    for u, v in sorted(instance.input_edges):
        directed.append((u, v))
        directed.append((v, u))
    out = []
    for e1, e2 in combinations(directed, 2):
        (v1, u1), (v2, u2) = e1, e2
        if seqs[v1] != seqs[v2] or seqs[u1] != seqs[u2]:
            continue
        if not are_independent(instance, e1, e2):
            continue
        crossed_graph_connected = _crossing_keeps_connected(instance, e1, e2)
        if crossed_graph_connected:
            continue
        out.append((e1, e2))
    return out


def _crossing_keeps_connected(instance: BCCInstance, e1, e2) -> bool:
    """Cheap connectivity test of the crossed input graph."""
    crossed = cross(instance, e1, e2)
    return crossed.input_graph().is_connected()


def forced_error_of_algorithm(
    simulator: Simulator,
    factory: AlgorithmFactory,
    n: int,
    rounds: int,
    coin: Optional[PublicCoin] = None,
) -> ForcedErrorReport:
    """Measure the exact forced error of a concrete algorithm at (n, t)."""
    one_cycles = [
        BCCInstance.kt0_from_graph(cover.to_graph())
        for cover in enumerate_one_cycle_covers(n)
    ]
    yes_count = 0
    fooled_total = 0
    error_mass = 0.0
    v1_weight = 0.5 / len(one_cycles)

    # first pass: count fooled instances per one-cycle (for the V2 weights)
    fooled_per_instance: List[int] = []
    decisions: List[str] = []
    pair_store: List[List] = []
    for inst in one_cycles:
        run = simulator.run(inst, factory, rounds, coin=coin)
        pairs = _premise_pairs(run, inst)
        fooled_per_instance.append(len(pairs))
        decisions.append(decision_of_run(run))
        pair_store.append(pairs)
    total_fooled = sum(fooled_per_instance)

    for decision, fooled in zip(decisions, fooled_per_instance):
        if decision == YES:
            yes_count += 1
            # errs on all its fooled two-cycle instances
            if total_fooled:
                error_mass += 0.5 * fooled / total_fooled
        else:
            # errs on the one-cycle instance itself
            error_mass += v1_weight
        fooled_total += fooled

    return ForcedErrorReport(
        n=n,
        rounds=rounds,
        one_cycle_count=len(one_cycles),
        yes_on_one_cycles=yes_count,
        fooled_two_cycle_instances=fooled_total,
        forced_error=error_mass,
    )


def forced_error_curve(
    simulator: Simulator,
    factory: AlgorithmFactory,
    n: int,
    round_values: List[int],
    coin: Optional[PublicCoin] = None,
) -> List[Tuple[int, float]]:
    """(t, forced error) series -- the finite-n decay curve that Theorem
    3.1 says cannot reach o(1) before t = Omega(log n)."""
    return [
        (t, forced_error_of_algorithm(simulator, factory, n, t, coin).forced_error)
        for t in round_values
    ]
