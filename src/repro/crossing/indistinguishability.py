"""Operational indistinguishability of instances (Lemma 3.4).

Two KT-0 instances are indistinguishable after t rounds of an algorithm A
iff every vertex has the same *state* -- initial knowledge plus t-round
transcript -- in both executions. This module checks that property on real
simulator runs, which is how the test suite validates Lemma 3.4: if the
heads of the crossed pair broadcast the same sequence x and the tails the
same sequence y during the first t rounds, then I and I(e1, e2) must be
indistinguishable after t rounds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.algorithm import AlgorithmFactory
from repro.core.instance import BCCInstance
from repro.core.randomness import PublicCoin
from repro.core.simulator import RunResult, Simulator
from repro.crossing.independent import DirectedEdge


def vertex_states(
    simulator: Simulator, result: RunResult, rounds: Optional[int] = None
) -> Tuple[tuple, ...]:
    """The per-vertex states (knowledge + transcript prefix) of a run."""
    coin = PublicCoin()  # knowledge comparison excludes the coin; any works
    states = []
    for v in range(result.instance.n):
        knowledge = simulator.initial_knowledge(result.instance, v, coin)
        states.append(result.state_view(v, knowledge, rounds))
    return tuple(states)


def indistinguishable_runs(
    simulator: Simulator,
    run_a: RunResult,
    run_b: RunResult,
    rounds: Optional[int] = None,
) -> bool:
    """True iff every vertex has the same state in both runs."""
    return vertex_states(simulator, run_a, rounds) == vertex_states(simulator, run_b, rounds)


def distinguishing_vertices(
    simulator: Simulator,
    run_a: RunResult,
    run_b: RunResult,
    rounds: Optional[int] = None,
) -> List[int]:
    """Vertex indices whose states differ between the two runs."""
    states_a = vertex_states(simulator, run_a, rounds)
    states_b = vertex_states(simulator, run_b, rounds)
    return [v for v, (a, b) in enumerate(zip(states_a, states_b)) if a != b]


def lemma_3_4_premise_holds(
    run: RunResult, e1: DirectedEdge, e2: DirectedEdge, rounds: Optional[int] = None
) -> bool:
    """Check the hypothesis of Lemma 3.4 on a run of the *original* instance.

    The premise: heads v1, v2 broadcast the same sequence and tails u1, u2
    broadcast the same sequence during the first t rounds.
    """
    t = run.rounds_executed if rounds is None else rounds
    (v1, u1), (v2, u2) = e1, e2
    seq = lambda v: run.transcripts[v].sent_sequence()[:t]  # noqa: E731
    return seq(v1) == seq(v2) and seq(u1) == seq(u2)


def check_lemma_3_4(
    simulator: Simulator,
    instance: BCCInstance,
    crossed: BCCInstance,
    factory: AlgorithmFactory,
    e1: DirectedEdge,
    e2: DirectedEdge,
    rounds: int,
    coin: Optional[PublicCoin] = None,
) -> Tuple[bool, bool]:
    """Run the algorithm on I and I(e1, e2) and evaluate Lemma 3.4.

    Returns ``(premise, conclusion)``: whether the matching-sequences
    premise held on the run of I, and whether the two runs were
    indistinguishable. Lemma 3.4 asserts premise -> conclusion; the tests
    check exactly that implication (and, on cycles, typically also observe
    the converse for the vertices involved).
    """
    run_a = simulator.run(instance, factory, rounds, coin=coin)
    run_b = simulator.run(crossed, factory, rounds, coin=coin)
    premise = lemma_3_4_premise_holds(run_a, e1, e2, rounds)
    conclusion = indistinguishable_runs(simulator, run_a, run_b, rounds)
    return premise, conclusion
