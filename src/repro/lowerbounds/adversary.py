"""A general crossing adversary against arbitrary KT-0 algorithms.

Given any concrete KT-0 algorithm and any one-cycle instance, the
adversary inspects the real transcripts, finds a pair of independent
directed edges satisfying Lemma 3.4's premise whose crossing disconnects
the graph, and hands back the fooling NO-instance -- on which the
algorithm is guaranteed (and operationally verified) to behave exactly as
on the YES-instance. This is the paper's argument weaponized against any
algorithm object the user supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional

from repro.core.algorithm import AlgorithmFactory
from repro.core.decision import decision_of_run
from repro.core.instance import BCCInstance
from repro.core.randomness import PublicCoin
from repro.core.simulator import Simulator
from repro.crossing.crossing import cross
from repro.crossing.independent import DirectedEdge, are_independent
from repro.crossing.indistinguishability import indistinguishable_runs


@dataclass
class FoolingPair:
    """A verified fooling instance for a specific algorithm run."""

    e1: DirectedEdge
    e2: DirectedEdge
    crossed_instance: BCCInstance
    same_decision: bool
    indistinguishable: bool


def find_fooling_pairs(
    simulator: Simulator,
    factory: AlgorithmFactory,
    instance: BCCInstance,
    rounds: int,
    coin: Optional[PublicCoin] = None,
    limit: Optional[int] = None,
    require_disconnecting: bool = True,
) -> List[FoolingPair]:
    """All (or the first ``limit``) verified fooling pairs for a run.

    A pair qualifies when Lemma 3.4's premise holds on the instance's own
    run and (by default) its crossing disconnects the input graph. Each
    returned pair is *operationally verified*: the algorithm is re-run on
    the crossed instance and both indistinguishability and equality of the
    system decision are checked and recorded.
    """
    run = simulator.run(instance, factory, rounds, coin=coin)
    seqs = {v: run.transcripts[v].sent_sequence() for v in range(instance.n)}

    directed: List[DirectedEdge] = []
    for u, v in sorted(instance.input_edges):
        directed.append((u, v))
        directed.append((v, u))

    results: List[FoolingPair] = []
    for e1, e2 in combinations(directed, 2):
        (v1, u1), (v2, u2) = e1, e2
        if seqs[v1] != seqs[v2] or seqs[u1] != seqs[u2]:
            continue
        if not are_independent(instance, e1, e2):
            continue
        crossed = cross(instance, e1, e2)
        if require_disconnecting and crossed.input_graph().is_connected():
            continue
        run_crossed = simulator.run(crossed, factory, rounds, coin=coin)
        results.append(
            FoolingPair(
                e1=e1,
                e2=e2,
                crossed_instance=crossed,
                same_decision=decision_of_run(run_crossed) == decision_of_run(run),
                indistinguishable=indistinguishable_runs(
                    simulator, run, run_crossed, rounds
                ),
            )
        )
        if limit is not None and len(results) >= limit:
            break
    return results


def adversary_defeats(
    simulator: Simulator,
    factory: AlgorithmFactory,
    instance: BCCInstance,
    rounds: int,
    coin: Optional[PublicCoin] = None,
) -> bool:
    """True iff the adversary finds at least one verified fooling pair --
    i.e. the algorithm, at this round budget, provably errs on either the
    instance or one of its crossings."""
    pairs = find_fooling_pairs(simulator, factory, instance, rounds, coin, limit=1)
    return bool(pairs) and pairs[0].indistinguishable
