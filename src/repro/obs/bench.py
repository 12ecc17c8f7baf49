"""The experiment registry and its machine-readable benchmark harness.

Each of the paper's experiments (E1-E10, the A1-A4 ablations, R1 and
P1-P4) is defined exactly once, as a runner below: it computes the
measured quantities, the paper-predicted ones, and an ``ok`` predicate
that gates their agreement. ``repro bench`` runs the registry, and
``benchmarks/bench_registry.py`` times the same runners at full size
under pytest-benchmark. :class:`BenchmarkHarness` runs each one under a
fresh :class:`~repro.obs.metrics.MetricsRegistry` installed process-wide (so
every instrumented layer -- simulator rounds, exhaustive-search
throughput, two-party simulation bits -- lands in the snapshot), and
writes one schema-versioned ``BENCH_<name>.json`` per benchmark with the
exact parameters, wall time, paper-predicted vs measured values, and the
full metric snapshot. Future PRs diff these files to prove a hot path
got faster.

Each spec has a ``quick`` parameter set (CI smoke: seconds total) and a
``full`` set (the experiments' seed sizes). All imports of experiment
code happen inside the runner bodies so this module stays importable
from anywhere (including ``repro.core``'s instrumentation) without
cycles.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.costs.ledger import CostLedger, use_ledger
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.schema import BENCH_SCHEMA_VERSION, validate_bench_payload

__all__ = [
    "BenchmarkHarness",
    "BenchmarkResult",
    "BenchmarkSpec",
    "bench_names",
    "load_bench_payloads",
]

#: (measured, predicted, ok)
RunnerOutput = Tuple[Dict[str, Any], Dict[str, Any], bool]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One harness benchmark: a kernel plus its quick/full parameters."""

    name: str
    description: str
    runner: Callable[[Dict[str, Any]], RunnerOutput]
    quick_params: Dict[str, Any]
    full_params: Dict[str, Any]
    #: Whether the runner honors a ``workers`` parameter (injected by the
    #: harness from ``BenchmarkHarness(workers=...)``). Specs without it
    #: always run serially regardless of the harness setting.
    supports_workers: bool = False
    #: Whether the runner honors a ``kernel`` parameter (injected by the
    #: harness from ``BenchmarkHarness(kernel=...)``; one of
    #: ``repro.kernels.KERNEL_MODES``). Specs without it always use each
    #: layer's default engine.
    supports_kernel: bool = False
    #: Whether the runner honors a ``cache_dir`` parameter (injected by
    #: the harness from ``BenchmarkHarness(cache_dir=...)``). Specs
    #: without it never touch the result cache; the harness default is
    #: cache-disabled, so benches measure real compute unless asked.
    supports_cache: bool = False

    def params(self, quick: bool) -> Dict[str, Any]:
        return dict(self.quick_params if quick else self.full_params)


@dataclass
class BenchmarkResult:
    """One benchmark execution, ready to serialize."""

    name: str
    description: str
    quick: bool
    params: Dict[str, Any]
    wall_time_seconds: float
    measured: Dict[str, Any]
    predicted: Dict[str, Any]
    ok: bool
    metrics: Dict[str, Any]
    #: ``CostLedger.summary()`` for the harness run -- total bits, rounds,
    #: and the per-vertex / per-phase breakdowns. Deterministic given
    #: (quick, workers, kernel), which is what makes the bits column in
    #: BENCH_HISTORY.jsonl a change-detector rather than a noise source.
    costs: Dict[str, Any] = field(default_factory=dict)
    created_unix: float = field(default_factory=time.time)
    path: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "created_unix": self.created_unix,
            "quick": self.quick,
            "params": self.params,
            "wall_time_seconds": self.wall_time_seconds,
            "measured": self.measured,
            "predicted": self.predicted,
            "ok": self.ok,
            "metrics": self.metrics,
        }
        if self.costs:
            payload["costs"] = self.costs
        return payload


# ----------------------------------------------------------------------
# runners (imports deferred: keeps repro.obs import-light and cycle-free)
# ----------------------------------------------------------------------
def _run_simulator(params: Dict[str, Any]) -> RunnerOutput:
    from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
    from repro.instances import one_cycle_instance

    n, rounds = params["n"], params["rounds"]
    result = Simulator(BCC1_KT0).run(one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds)
    # The harness installed a fresh registry, so it holds this run only.
    snapshot = get_registry().snapshot()
    counters = snapshot["counters"]
    measured = {
        "rounds_executed": result.rounds_executed,
        "total_bits_broadcast": result.total_bits_broadcast(),
        "counters_match_run": (
            counters["simulator.rounds_executed"] == result.rounds_executed
            and counters["simulator.bits_broadcast"] == result.total_bits_broadcast()
        ),
        "messages_validated": counters["simulator.messages_validated"],
        "round_samples": snapshot["histograms"]["simulator.round_seconds"]["count"],
    }
    predicted = {
        "rounds_executed": rounds,
        "total_bits_broadcast": n * rounds,
        "counters_match_run": True,
        "messages_validated": n * rounds,
        "round_samples": rounds,
    }
    return measured, predicted, measured == predicted


def _run_crossing(params: Dict[str, Any]) -> RunnerOutput:
    from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
    from repro.crossing import check_lemma_3_4, cross
    from repro.instances import one_cycle_instance

    n, rounds = params["n"], params["rounds"]
    inst = one_cycle_instance(n, kt=0)
    e1, e2 = (0, 1), (n // 2, n // 2 + 1)
    crossed = cross(inst, e1, e2)
    premise, conclusion = check_lemma_3_4(
        Simulator(BCC1_KT0), inst, crossed, ConstantAlgorithm, e1, e2, rounds
    )
    comps = sorted(len(c) for c in crossed.input_graph().connected_components())
    measured = {
        "premise": premise,
        "indistinguishable": conclusion,
        "split_sizes": comps,
    }
    predicted = {
        "indistinguishable_given_premise": True,
        "split_sizes": sorted([n // 2, n - n // 2]),
    }
    ok = bool((not premise or conclusion) and comps == predicted["split_sizes"])
    return measured, predicted, ok


def _run_kt0_star(params: Dict[str, Any]) -> RunnerOutput:
    from repro.core import BCC1_KT0, SilentAlgorithm, Simulator
    from repro.lowerbounds import fool_algorithm, theorem_3_5_error_bound

    n, rounds = params["n"], params["rounds"]
    report = fool_algorithm(Simulator(BCC1_KT0), SilentAlgorithm, n, rounds)
    floor = theorem_3_5_error_bound(n, rounds)
    # The closed-form floor has the Omega(3^{-4t}) shape wherever it is
    # positive: within a factor 10 of 3^{-4t} / 8.
    floors = [
        (theorem_3_5_error_bound(3**k, t), 3.0 ** (-4 * t) / 8)
        for k in (6, 8, 10)
        for t in (1, 2, 3)
    ]
    measured = {
        "achieved_error": report.achieved_error,
        "fooled_pairs": report.fooled_pairs,
        "verified_pairs": report.indistinguishable_pairs,
        "all_pairs_indistinguishable": report.all_pairs_indistinguishable,
        "floor_has_shape": all(f == 0 or f >= shape / 10 for f, shape in floors),
    }
    predicted = {"error_floor": floor, "floor_has_shape": True}
    ok = bool(
        report.all_pairs_indistinguishable
        and report.achieved_error >= floor
        and measured["floor_has_shape"]
    )
    return measured, predicted, ok


def _run_kt0_constant_error(params: Dict[str, Any]) -> RunnerOutput:
    from repro.core import BCC1_KT0, ConstantAlgorithm, SilentAlgorithm, Simulator
    from repro.lowerbounds import forced_error_of_algorithm

    n, rounds = params["n"], params["rounds"]
    sim = Simulator(BCC1_KT0)
    report = forced_error_of_algorithm(sim, SilentAlgorithm, n, rounds)
    constant = forced_error_of_algorithm(sim, ConstantAlgorithm, n, rounds)
    measured = {
        "forced_error": report.forced_error,
        "one_cycle_count": report.one_cycle_count,
        "fooled_two_cycle_instances": report.fooled_two_cycle_instances,
        "constant_forced_error": constant.forced_error,
    }
    predicted = {"forced_error": 0.5, "constant_forced_error": 0.5}
    ok = (
        abs(report.forced_error - 0.5) < 1e-9
        and abs(constant.forced_error - 0.5) < 1e-9
    )
    return measured, predicted, ok


def _run_exhaustive(params: Dict[str, Any]) -> RunnerOutput:
    from repro.lowerbounds import universal_bound_id_oblivious

    n = params["n"]
    alphabet = tuple(params["alphabet"])
    workers = int(params.get("workers", 1))
    report = universal_bound_id_oblivious(n, alphabet=alphabet, workers=workers)
    measured = {
        "class_size": report.class_size,
        "minimum_forced_error": report.minimum_forced_error,
    }
    predicted = {
        "class_size": len(alphabet) ** n,
        "minimum_forced_error_positive": True,
    }
    ok = report.class_size == len(alphabet) ** n and report.minimum_forced_error > 0
    return measured, predicted, ok


def _run_v2_v1_ratio(params: Dict[str, Any]) -> RunnerOutput:
    from repro.analysis import fit_logarithmic
    from repro.indist import predicted_v2_v1_ratio

    ns = [10**k for k in range(1, params["max_exp"] + 1)]
    ratios = [predicted_v2_v1_ratio(n) for n in ns]
    fit = fit_logarithmic(ns, ratios)
    measured = {"slope": fit.slope, "r_squared": fit.r_squared}
    predicted = {"slope": 0.5}
    ok = 0.4 < fit.slope < 0.55 and fit.r_squared > 0.99
    return measured, predicted, ok


def _run_partition_rank(params: Dict[str, Any]) -> RunnerOutput:
    import math

    from repro.partitions import SetPartition, bell_number, build_m_matrix, rank_exact
    from repro.twoparty import TrivialPartitionProtocol, rgs_bit_width

    n = params["n"]
    kernel = str(params.get("kernel", "auto"))
    _parts, matrix = build_m_matrix(n)
    rank = rank_exact(matrix, kernel=kernel)
    # Corollary 2.4 sandwich: log2 rank(M_n) <= D(Partition) <= the
    # trivial protocol's measured n * ceil(log n) + 1 bits.
    trivial = TrivialPartitionProtocol(n).run(
        SetPartition.finest(n), SetPartition.coarsest(n)
    )
    measured = {"rank": rank, "trivial_protocol_bits": trivial.total_bits}
    predicted = {
        "bell_number": bell_number(n),
        "trivial_protocol_bits": n * rgs_bit_width(n) + 1,
    }
    ok = (
        rank == bell_number(n)
        and trivial.total_bits == predicted["trivial_protocol_bits"]
        and math.log2(rank) <= trivial.total_bits
    )
    return measured, predicted, ok


def _run_reduction(params: Dict[str, Any]) -> RunnerOutput:
    import random

    from repro.partitions import (
        enumerate_perfect_matchings,
        perfect_matching_count,
        random_perfect_matching,
    )
    from repro.twoparty import build_two_partition_reduction

    n, pairs, seed = params["n"], params["pairs"], params["seed"]
    rng = random.Random(seed)
    checked = agreements = 0
    for _ in range(pairs):
        pa = random_perfect_matching(n, rng)
        pb = random_perfect_matching(n, rng)
        red = build_two_partition_reduction(pa, pb)
        checked += 1
        if red.induced_partition_on_l() == pa.join(pb):
            agreements += 1
    # Every matching pair at exhaustive_n: G is connected iff the join is
    # the one-block partition.
    matchings = list(enumerate_perfect_matchings(params["exhaustive_n"]))
    connectivity_agreements = sum(
        build_two_partition_reduction(pa, pb).is_connected()
        == pa.join(pb).is_coarsest()
        for pa in matchings
        for pb in matchings
    )
    measured = {
        "pairs_checked": checked,
        "join_agreements": agreements,
        "connectivity_agreements": connectivity_agreements,
    }
    predicted = {
        "join_agreements": checked,
        "connectivity_agreements": perfect_matching_count(params["exhaustive_n"]) ** 2,
    }
    ok = (
        agreements == checked
        and connectivity_agreements == predicted["connectivity_agreements"]
    )
    return measured, predicted, ok


def _run_kt1_simulation(params: Dict[str, Any]) -> RunnerOutput:
    import random

    from repro.algorithms import (
        components_factory,
        connectivity_factory,
        id_bit_width,
        neighbor_exchange_rounds,
    )
    from repro.partitions import random_partition, random_perfect_matching
    from repro.twoparty import BCCSimulationProtocol, simulation_bits_per_round

    n, seed = params["n"], params["seed"]
    rng = random.Random(seed)
    pa = random_perfect_matching(n, rng)
    pb = random_perfect_matching(n, rng)
    rounds = neighbor_exchange_rounds(1, 2, id_bit_width(3 * n))
    proto = BCCSimulationProtocol(
        "two_partition", components_factory(2), rounds, mode="components"
    )
    result = proto.run(pa, pb)
    predicted_bits = rounds * simulation_bits_per_round("two_partition", n)
    # A decision-mode run rides along so the shared cost ledger records
    # both Section 4.3 phases: the round-by-round ``simulate`` traffic
    # and the final two ``decision`` bits.
    da = random_partition(n, rng)
    db = random_partition(n, rng)
    w = id_bit_width(4 * n)
    dec_rounds = neighbor_exchange_rounds(1, n + 1, w)
    dec_proto = BCCSimulationProtocol(
        "partition", connectivity_factory(n + 1, id_bits=w), dec_rounds, mode="decision"
    )
    dec_result = dec_proto.run(da, db)
    dec_predicted = dec_rounds * simulation_bits_per_round("partition", n) + 2
    dec_expected = 1 if da.join(db).is_coarsest() else 0
    measured = {
        "bcc_rounds": rounds,
        "total_bits": result.total_bits,
        "join_correct": result.bob_output == pa.join(pb),
        "decision_total_bits": dec_result.total_bits,
        "decision_correct": dec_result.alice_output
        == dec_expected
        == dec_result.bob_output,
    }
    predicted = {"total_bits": predicted_bits, "decision_total_bits": dec_predicted}
    ok = (
        result.total_bits == predicted_bits
        and result.bob_output == pa.join(pb)
        and dec_result.total_bits == dec_predicted
        and measured["decision_correct"]
    )
    return measured, predicted, ok


def _run_upper_bounds(params: Dict[str, Any]) -> RunnerOutput:
    from repro.algorithms import (
        connectivity_factory,
        full_adjacency_components_factory,
        id_bit_width,
        neighbor_exchange_rounds,
    )
    from repro.core import BCC1_KT0, BCC1_KT1, Simulator
    from repro.instances import one_cycle_instance

    n = params["n"]
    r0 = Simulator(BCC1_KT0).run_until_done(
        one_cycle_instance(n, kt=0), connectivity_factory(2), 10_000
    )
    r1 = Simulator(BCC1_KT1).run_until_done(
        one_cycle_instance(n, kt=1), connectivity_factory(2), 10_000
    )
    bound0 = neighbor_exchange_rounds(0, 2, id_bit_width(4 * n - 1))
    bound1 = neighbor_exchange_rounds(1, 2, id_bit_width(n - 1))
    # The Theta(n) baseline: FullAdjacency takes exactly n rounds on a
    # cycle, so NeighborExchange's Theta(log n) wins from n = 16 on.
    full = Simulator(BCC1_KT1).run_until_done(
        one_cycle_instance(n, kt=1), full_adjacency_components_factory(), n + 1
    )
    measured = {
        "kt0_rounds": r0.rounds_executed,
        "kt1_rounds": r1.rounds_executed,
        "full_adjacency_rounds": full.rounds_executed,
    }
    predicted = {
        "kt0_round_budget": bound0,
        "kt1_round_budget": bound1,
        "full_adjacency_rounds": n,
    }
    ok = (
        r0.rounds_executed <= bound0
        and r1.rounds_executed <= bound1
        and full.rounds_executed == n
        and r1.rounds_executed < full.rounds_executed
    )
    return measured, predicted, ok


def _run_mst(params: Dict[str, Any]) -> RunnerOutput:
    import random

    from repro.algorithms import boruvka_mst_factory, mst_bandwidth, mst_max_rounds
    from repro.core import BCCInstance, BCCModel, Simulator
    from repro.graphs import forest_weight, gnp_random_graph, kruskal, random_weights

    n, seed = params["n"], params["seed"]
    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.4, rng)
    weights = {e: int(w) for e, w in random_weights(g, rng).items()}
    inst = BCCInstance.kt1_from_graph(g)
    sim = Simulator(BCCModel(bandwidth=mst_bandwidth(n), kt=1))
    res = sim.run_until_done(inst, boruvka_mst_factory(weights), mst_max_rounds(n) + 2)
    float_weights = {e: float(w) for e, w in weights.items()}
    truth = kruskal(g, float_weights)
    distributed = set(res.outputs[0])
    measured = {
        "rounds": res.rounds_executed,
        "weight": forest_weight(distributed, float_weights),
        "identical_to_kruskal": distributed == truth,
    }
    predicted = {
        "round_budget": mst_max_rounds(n) + 2,
        "weight": forest_weight(truth, float_weights),
    }
    ok = distributed == truth and res.rounds_executed <= mst_max_rounds(n) + 2
    return measured, predicted, ok


def _run_mutual_information(params: Dict[str, Any]) -> RunnerOutput:
    from repro.analysis import fit_logarithmic
    from repro.information import evaluate_protocol, information_lower_bound
    from repro.lowerbounds import information_bound_table
    from repro.partitions import log2_bell
    from repro.twoparty import TrivialPartitionCompProtocol

    n = params["n"]
    report = evaluate_protocol(TrivialPartitionCompProtocol(n), n)
    floor = information_lower_bound(n, report.error_rate)
    # The implied Theorem 4.5 round bound (eps = 1/3) grows like log n.
    rows = information_bound_table([8, 16, 32, 64, 128, 256], error_rate=1 / 3)
    fit = fit_logarithmic(
        [4 * r.ground_set for r in rows], [r.round_lower_bound for r in rows]
    )
    measured = {
        "error_rate": report.error_rate,
        "information": report.information,
        "input_entropy": report.input_entropy,
        "chain_holds": report.chain_holds(),
        "round_bound_slope": fit.slope,
        "round_bound_r_squared": fit.r_squared,
    }
    predicted = {
        "input_entropy": log2_bell(n),
        "information_floor": floor,
        "chain_holds": True,
    }
    ok = (
        abs(report.input_entropy - log2_bell(n)) < 1e-6
        and report.information >= floor - 1e-9
        and report.chain_holds()
        and fit.slope > 0
        and fit.r_squared > 0.97
    )
    return measured, predicted, ok


def _run_sampling(params: Dict[str, Any]) -> RunnerOutput:
    import random

    from repro.information import estimate_protocol_information, evaluate_protocol
    from repro.twoparty import TrivialPartitionCompProtocol

    n, samples, seed = params["n"], params["samples"], params["seed"]
    workers = int(params.get("workers", 1))
    report = estimate_protocol_information(
        TrivialPartitionCompProtocol(n), n, samples, random.Random(seed),
        workers=workers,
    )
    exact = evaluate_protocol(TrivialPartitionCompProtocol(n), n)
    # Beyond exact n the estimate keeps growing with n (until it nears
    # the log2(samples) cap).
    growth = [
        estimate_protocol_information(
            TrivialPartitionCompProtocol(m), m, params["growth_samples"], random.Random(m)
        ).information_estimate
        for m in params["growth_ns"]
    ]
    measured = {
        "information_estimate": report.information_estimate,
        "corrected_information": report.corrected_information,
        "saturated": report.saturated,
        "growth_estimates": growth,
        "growth_monotone": all(b >= a for a, b in zip(growth, growth[1:])),
    }
    predicted = {"information_exact": exact.information, "growth_monotone": True}
    ok = (
        abs(report.information_estimate - exact.information) < 0.15
        and measured["growth_monotone"]
    )
    return measured, predicted, ok


def _run_indist_degrees(params: Dict[str, Any]) -> RunnerOutput:
    from repro.indist import (
        measured_one_cycle_degree,
        one_cycle_degree,
        one_cycle_neighbor_split_counts,
        predicted_split_counts,
    )
    from repro.instances import enumerate_one_cycle_covers

    n = params["n"]
    cover = next(iter(enumerate_one_cycle_covers(n)))
    measured_degree = measured_one_cycle_degree(cover)
    splits = one_cycle_neighbor_split_counts(cover)
    expected_splits = predicted_split_counts(n)
    measured = {
        "one_cycle_degree": measured_degree,
        "split_counts_match": all(
            count == expected_splits.get(i) for i, count in splits.items()
        ),
    }
    predicted = {"one_cycle_degree": one_cycle_degree(n), "split_counts_match": True}
    return measured, predicted, measured == predicted


def _greedy_matching_size(graph) -> int:
    """First-fit matching in a fixed vertex order: the A2 strawman."""
    used = set()
    for left in sorted(graph.left, key=repr):
        for right in sorted(graph.neighbors(left), key=repr):
            if right not in used:
                used.add(right)
                break
    return len(used)


def _run_ablations(params: Dict[str, Any]) -> RunnerOutput:
    """A1-A4: each design choice of the paper's constructions, ablated.

    A1 crosses input edges with and without the Definition 3.3 port
    rewiring; A2 matches G^0 with Hopcroft-Karp and with first-fit greedy;
    A3 ranks E_n with Bareiss (exact over Q) and mod-p elimination; A4
    sizes the spanning-tree and transcript PLS labels.
    """
    from repro.algorithms import connectivity_factory, id_bit_width, neighbor_exchange_rounds
    from repro.core import BCC1_KT0, BCC1_KT1, ConstantAlgorithm, Simulator
    from repro.crossing import cross, indistinguishable_runs
    from repro.indist import build_combinatorial_graph, maximum_matching_size
    from repro.instances import one_cycle_instance
    from repro.partitions import build_e_matrix, perfect_matching_count, rank_bareiss, rank_mod_p
    from repro.pls import SpanningTreePLS, TranscriptPLS

    n, rounds = params["n"], params["rounds"]
    inst = one_cycle_instance(n, kt=0)
    e1, e2 = (0, 1), (n // 2 - 1, n // 2)
    sim = Simulator(BCC1_KT0)

    proper = cross(inst, e1, e2)
    (v1, u1), (v2, u2) = e1, e2
    edges = set(inst.input_edges)
    edges.discard((min(v1, u1), max(v1, u1)))
    edges.discard((min(v2, u2), max(v2, u2)))
    edges.add((min(v1, u2), max(v1, u2)))
    edges.add((min(v2, u1), max(v2, u1)))
    naive = inst.replace(input_edges=edges)

    run = sim.run(inst, ConstantAlgorithm, rounds)
    run_proper = sim.run(proper, ConstantAlgorithm, rounds)
    run_naive = sim.run(naive, ConstantAlgorithm, rounds)
    proper_indist = indistinguishable_runs(sim, run, run_proper)
    naive_indist = indistinguishable_runs(sim, run, run_naive)

    graph = build_combinatorial_graph(params["graph_n"])
    hk = maximum_matching_size(graph)
    _matchings, e_matrix = build_e_matrix(params["e_n"])

    pls_n = params["pls_n"]
    pls_inst = one_cycle_instance(pls_n, kt=1)
    tree_pls = SpanningTreePLS()
    transcript_pls = TranscriptPLS(
        Simulator(BCC1_KT1),
        connectivity_factory(2),
        neighbor_exchange_rounds(1, 2, id_bit_width(pls_n - 1)),
    )
    measured = {
        "proper_crossing_indistinguishable": proper_indist,
        "naive_swap_indistinguishable": naive_indist,
        "hopcroft_karp_matching": hk,
        "greedy_matching": _greedy_matching_size(graph),
        "e_rank_bareiss": rank_bareiss(e_matrix),
        "e_rank_mod_p": rank_mod_p(e_matrix, 1_000_003),
        "pls_complete": bool(
            tree_pls.completeness_holds(pls_inst)
            and transcript_pls.completeness_holds(pls_inst)
        ),
        "spanning_tree_label_bits": tree_pls.verification_complexity(pls_inst),
        "transcript_label_bits": transcript_pls.verification_complexity(),
    }
    predicted = {
        "proper_crossing_indistinguishable": True,
        "naive_swap_indistinguishable": False,
        "hopcroft_karp_matching": len(graph.right),
        "e_rank": perfect_matching_count(params["e_n"]),
        "pls_complete": True,
    }
    ok = bool(
        proper_indist
        and not naive_indist
        and hk == len(graph.right) >= measured["greedy_matching"]
        and measured["e_rank_bareiss"] == measured["e_rank_mod_p"] == predicted["e_rank"]
        and measured["pls_complete"]
        and measured["spanning_tree_label_bits"] > 0
        and measured["transcript_label_bits"] > 0
    )
    return measured, predicted, ok


def _run_spans(params: Dict[str, Any]) -> RunnerOutput:
    from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
    from repro.instances import one_cycle_instance
    from repro.obs.spans import SpanRecorder, use_recorder

    n, rounds = params["n"], params["rounds"]
    inst = one_cycle_instance(n, kt=0)
    sim = Simulator(BCC1_KT0)
    bare = sim.run(inst, ConstantAlgorithm, rounds)
    recorder = SpanRecorder()
    with use_recorder(recorder):
        recorded = sim.run(inst, ConstantAlgorithm, rounds)
    roots = recorder.roots
    run = roots[0] if roots else None
    round_spans = (
        [c for c in run.children if c.name == "simulator.round"] if run else []
    )
    phase_shape_ok = bool(round_spans) and all(
        [c.name for c in rnd.children]
        == ["simulator.broadcast", "simulator.deliver"]
        for rnd in round_spans
    )
    measured = {
        "root_name": run.name if run else None,
        "round_spans": len(round_spans),
        "span_count": recorder.span_count(),
        "phase_shape_ok": phase_shape_ok,
        "results_identical": (
            bare.broadcast_history == recorded.broadcast_history
            and bare.outputs == recorded.outputs
        ),
    }
    predicted = {
        "root_name": "simulator.run",
        "round_spans": rounds,
        "span_count": 1 + 3 * rounds,
        "phase_shape_ok": True,
        "results_identical": True,
    }
    return measured, predicted, measured == predicted


def _run_resilience(params: Dict[str, Any]) -> RunnerOutput:
    from repro.resilience import FaultPlan, fault_sweep, validate_fault_sweep_payload

    n, trials, rate = params["n"], params["trials"], params["rate"]
    workers = int(params.get("workers", 1))
    report = fault_sweep(
        algorithms=("neighbor_exchange", "flooding"),
        kinds=("bit_flip", "erasure", "crash"),
        rates=(0.0, rate),
        n=n,
        trials=trials,
        seed=params["seed"],
        workers=workers,
    )
    payload = report.as_payload()
    problems = validate_fault_sweep_payload(payload)
    baseline_ok = all(
        curve.points[0].correctness_rate == 1.0 for curve in report.curves
    )
    faults_at_rate = sum(curve.points[1].faults_injected for curve in report.curves)

    # clean path vs zero-rate plan: the fault machinery must be invisible
    from repro.algorithms import connectivity_factory
    from repro.core import BCC1_KT1, Simulator
    from repro.instances import one_cycle_instance

    inst = one_cycle_instance(n, kt=1)
    sim = Simulator(BCC1_KT1)
    clean = sim.run(inst, connectivity_factory(max_degree=2), 2 * n)
    zeroed = sim.run(
        inst, connectivity_factory(max_degree=2), 2 * n, faults=FaultPlan(seed=0)
    )
    invisible = (
        clean.outputs == zeroed.outputs
        and clean.broadcast_history == zeroed.broadcast_history
        and zeroed.fault_events == ()
    )
    measured = {
        "curves": len(report.curves),
        "baseline_correctness_one": baseline_ok,
        "faults_injected_at_rate": faults_at_rate,
        "payload_schema_problems": len(problems),
        "zero_rate_plan_invisible": invisible,
    }
    predicted = {
        "curves": 6,
        "baseline_correctness_one": True,
        "payload_schema_problems": 0,
        "zero_rate_plan_invisible": True,
    }
    ok = (
        len(report.curves) == 6
        and baseline_ok
        and not problems
        and invisible
        and faults_at_rate > 0
    )
    return measured, predicted, ok


def _run_parallel(params: Dict[str, Any]) -> RunnerOutput:
    """P2: the ``repro.parallel`` layer -- correctness first, speed second.

    Times the serial scan and the scan at ``workers`` on the same
    exhaustive-search instance, and checks the two reports are
    identical. The executor forks a pool only after
    ``POOL_AFTER_SECONDS`` of in-process work, so ``fanout_speedup``
    measures that rule at this instance's size: ~1 when the whole scan
    is shorter than the threshold (both parameter sets here), a pool's
    speedup only above it. ``ok`` is the identity check plus schema
    validity only: speedups are *recorded* but never gate (single-core
    CI runners make fan-out speedups meaningless; the honest number is
    still worth tracking).
    """
    from repro.lowerbounds import clear_pair_cache, universal_bound_id_oblivious

    n = params["n"]
    alphabet = tuple(params["alphabet"])
    workers = int(params.get("workers", 4))

    def _timed(w: int):
        # Cold each time: forked workers would inherit the serial leg's
        # class scores.
        clear_pair_cache()
        start = time.perf_counter()
        report = universal_bound_id_oblivious(n, alphabet=alphabet, workers=w)
        return report, time.perf_counter() - start

    serial, serial_s = _timed(1)
    fanned, fanout_s = _timed(workers)
    identical = (
        fanned.minimum_forced_error == serial.minimum_forced_error
        and fanned.worst_assignment == serial.worst_assignment
        and fanned.class_size == serial.class_size
    )
    measured: Dict[str, Any] = {
        "serial_seconds": serial_s,
        "fanout_seconds": fanout_s,
        "fanout_workers": workers,
        "fanout_speedup": serial_s / fanout_s if fanout_s > 0 else None,
    }
    cache_dir = params.get("cache_dir")
    if cache_dir:
        # Warm-path leg (``repro bench --cache DIR`` only): the same
        # exhaustive request through the engine twice against one
        # content-addressed cache. The second call must be a hit AND
        # byte-identical to the first -- the speedup is recorded but the
        # gate is pure identity (a first leg that hits a pre-warmed
        # directory honestly reports speedup ~1).
        from repro.cache import ResultCache
        from repro.engine import EngineRequest, execute

        cache = ResultCache(cache_dir)
        request = EngineRequest(
            "exhaustive", {"n": n, "alphabet": list(alphabet)}, workers=1
        )
        start = time.perf_counter()
        cold = execute(request, cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = execute(request, cache=cache)
        warm_s = time.perf_counter() - start
        cache_hit = bool(warm.cached and warm.payload == cold.payload)
        identical = identical and cache_hit
        measured["cache_cold_seconds"] = cold_s
        measured["cache_warm_seconds"] = warm_s
        measured["cache_warm_speedup"] = cold_s / warm_s if warm_s > 0 else None
        measured["cache_warm_hit"] = cache_hit
        measured["cache"] = "on"
    else:
        measured["cache"] = "off"
    measured["reports_identical"] = identical
    predicted = {"reports_identical": True}
    return measured, predicted, identical


def _run_kernels(params: Dict[str, Any]) -> RunnerOutput:
    """P3/P10: the rank engines against each other, identity-gated.

    The P10 crossover table: every mod-p rank engine (``reference``,
    and ``numpy-batched`` when numpy is present) on every matrix family
    (M_n, E_n, a seeded random dense matrix, a seeded random 2%-dense
    one) at the spec's sizes, one ``measured["rows"]`` entry per
    (family, engine) holding the best of 3 timings, or the one timing of
    a leg that takes a second or more (at full size the reference engine
    on the 300x300 dense matrix). ``rank_engine[<family>]`` names the
    engine ``rank_mod_p`` dispatches that family's matrix to under
    ``kernel`` (it depends on the row count), and ``<family>_speedup`` is
    the reference time over that engine's time. ``ok`` gates purely on
    result identity (equal ranks across engines) and on the paper's
    ranks. Speedups are *recorded* but never gate (machine-dependent;
    docs/EXPERIMENTS.md quotes the measured table).
    """
    from repro.kernels import batched_modp_supported, rank_mod_p_batched
    from repro.partitions import (
        bell_number,
        build_e_matrix,
        build_m_matrix,
        perfect_matching_count,
    )
    from repro.partitions.linalg import DEFAULT_PRIMES, _modp_engine, rank_mod_p

    kernel = str(params.get("kernel", "auto"))
    p = DEFAULT_PRIMES[0]
    dense_size = params["dense_size"]
    sparse_size = params["sparse_size"]
    rng = random.Random(dense_size)
    random_dense = [
        [rng.randrange(p) for _ in range(dense_size)] for _ in range(dense_size)
    ]
    rng = random.Random(sparse_size)
    random_sparse = [
        [rng.randrange(1, p) if rng.random() < 0.02 else 0 for _ in range(sparse_size)]
        for _ in range(sparse_size)
    ]
    families = {
        "m_matrix": build_m_matrix(params["rank_n"])[1],
        "e_matrix": build_e_matrix(params["e_n"])[1],
        "random_dense": random_dense,
        "random_sparse": random_sparse,
    }
    engines = {"reference": lambda m: rank_mod_p(m, p, kernel="reference")}
    if batched_modp_supported(p):
        engines["numpy-batched"] = lambda m: rank_mod_p_batched(m, p)

    def timed(fn):
        # Best of 3, except that a leg whose first timing already takes a
        # second is timed once: repeats only steady short timings.
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - start)
            if best >= 1.0:
                break
        return out, best

    def speedup(ref_s: float, fast_s: float):
        return ref_s / fast_s if fast_s > 0 else None

    for fn in engines.values():
        fn([[1]])  # warm-up: loads numpy outside the timed region
    rows: List[Dict[str, Any]] = []
    measured: Dict[str, Any] = {"rank_engine": {}}
    ranks_identical = True
    for family, matrix in families.items():
        dispatched = _modp_engine(p, kernel, len(matrix))
        dispatched = "reference" if dispatched == "python" else dispatched
        measured["rank_engine"][family] = dispatched
        seconds: Dict[str, float] = {}
        ranks = set()
        for engine, fn in engines.items():
            rank, seconds[engine] = timed(lambda: fn(matrix))
            ranks.add(rank)
            rows.append(
                {
                    "family": family,
                    "size": len(matrix),
                    "engine": engine,
                    "rank": rank,
                    "seconds": seconds[engine],
                }
            )
        ranks_identical = ranks_identical and len(ranks) == 1
        measured[f"{family}_rank"] = rank
        measured[f"{family}_speedup"] = speedup(
            seconds["reference"], seconds[dispatched]
        )

    measured.update({"rows": rows, "results_identical": ranks_identical})
    # The mod-p ranks still certify Theorem 2.3 and Lemma 4.1.
    predicted = {
        "results_identical": True,
        "m_matrix_rank": bell_number(params["rank_n"]),
        "e_matrix_rank": perfect_matching_count(params["e_n"]),
    }
    ok = (
        ranks_identical
        and measured["m_matrix_rank"] == predicted["m_matrix_rank"]
        and measured["e_matrix_rank"] == predicted["e_matrix_rank"]
    )
    return measured, predicted, ok


def _run_costs(params: Dict[str, Any]) -> RunnerOutput:
    import statistics

    from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
    from repro.costs import check_all
    from repro.costs.ledger import set_ledger
    from repro.instances import one_cycle_instance

    results = check_all(quick=params["quick_specs"])
    mismatches = [r.name for r in results if not r.ok]

    # Non-gating overhead probe: the disabled path is a single None check
    # per round, and the enabled path one dict update per vertex-round.
    # Medians land on the dashboard but never flip ``ok`` -- wall time on
    # shared CI is too noisy to gate on.
    n, rounds, repeats = params["n"], params["rounds"], params["repeats"]
    inst = one_cycle_instance(n, kt=0)
    sim = Simulator(BCC1_KT0)
    previous = set_ledger(None)  # the harness ledger must not taint the probe
    try:
        disabled: List[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            sim.run(inst, ConstantAlgorithm, rounds)
            disabled.append(time.perf_counter() - start)
        enabled: List[float] = []
        summaries: List[Dict[str, Any]] = []
        for _ in range(repeats):
            ledger = CostLedger()
            with use_ledger(ledger):
                start = time.perf_counter()
                sim.run(inst, ConstantAlgorithm, rounds)
                enabled.append(time.perf_counter() - start)
            summaries.append(ledger.summary())
    finally:
        set_ledger(previous)
    # Identical runs ledger identical cells, one bit per vertex-round.
    ledger_ok = all(summary == summaries[0] for summary in summaries) and all(
        entry["bits"] == rounds for entry in summaries[0]["per_vertex"]
    )
    measured = {
        "specs_checked": len(results),
        "mismatches": mismatches,
        "sympy_checked": all(r.sympy_checked for r in results),
        "per_spec": {
            r.name: {"rounds": r.measured_rounds, "bits": r.measured_bits}
            for r in results
        },
        "disabled_median_seconds": statistics.median(disabled),
        "enabled_median_seconds": statistics.median(enabled),
        "ledger_total_bits": summaries[0]["total_bits"],
        "ledger_deterministic_per_vertex": ledger_ok,
    }
    predicted = {
        "mismatches": [],
        "ledger_total_bits": n * rounds,
        "ledger_deterministic_per_vertex": True,
    }
    ok = (
        not mismatches
        and measured["ledger_total_bits"] == n * rounds
        and ledger_ok
    )
    return measured, predicted, ok


_SPECS: List[BenchmarkSpec] = [
    BenchmarkSpec(
        "simulator",
        "core round engine: rounds executed and bits broadcast vs closed form",
        _run_simulator,
        {"n": 16, "rounds": 4},
        {"n": 64, "rounds": 8},
    ),
    BenchmarkSpec(
        "crossing",
        "E1: Figure 1 crossing + Lemma 3.4 on live executions",
        _run_crossing,
        {"n": 12, "rounds": 2},
        {"n": 32, "rounds": 8},
    ),
    BenchmarkSpec(
        "kt0_star",
        "E2: Theorem 3.5 star adversary vs the silent algorithm",
        _run_kt0_star,
        {"n": 15, "rounds": 1},
        {"n": 30, "rounds": 3},
    ),
    BenchmarkSpec(
        "kt0_constant_error",
        "E5: Theorem 3.1 exact forced error of a symmetric algorithm",
        _run_kt0_constant_error,
        {"n": 6, "rounds": 2},
        {"n": 6, "rounds": 3},
    ),
    BenchmarkSpec(
        "exhaustive",
        "E5+: min forced error over the full ID-oblivious 1-round class",
        _run_exhaustive,
        {"n": 6, "alphabet": ["0", "1"]},
        {"n": 6, "alphabet": ["", "0", "1"]},
        supports_workers=True,
    ),
    BenchmarkSpec(
        "v2_v1_ratio",
        "E4: Lemma 3.9 |V2|/|V1| ~ (1/2) ln n fit",
        _run_v2_v1_ratio,
        {"max_exp": 4},
        {"max_exp": 6},
    ),
    BenchmarkSpec(
        "partition_rank",
        "E6: rank(M_n) = B_n (Theorem 2.3), exact",
        _run_partition_rank,
        {"n": 4},
        {"n": 5},
        supports_kernel=True,
    ),
    BenchmarkSpec(
        "reduction",
        "E7: Theorem 4.3 join agreement on random TwoPartition reductions",
        _run_reduction,
        {"n": 6, "pairs": 10, "seed": 17, "exhaustive_n": 4},
        {"n": 10, "pairs": 30, "seed": 17, "exhaustive_n": 6},
    ),
    BenchmarkSpec(
        "kt1_simulation",
        "E8: Section 4.3 Alice/Bob simulation bit accounting",
        _run_kt1_simulation,
        {"n": 6, "seed": 5},
        {"n": 8, "seed": 5},
    ),
    BenchmarkSpec(
        "upper_bounds",
        "E10: measured NeighborExchange rounds vs closed-form budgets",
        _run_upper_bounds,
        {"n": 16},
        {"n": 64},
    ),
    BenchmarkSpec(
        "mst",
        "E10+: broadcast Boruvka MST vs Kruskal ground truth",
        _run_mst,
        {"n": 10, "seed": 10},
        {"n": 16, "seed": 16},
    ),
    BenchmarkSpec(
        "mutual_information",
        "E9: Theorem 4.5 exact information accounting",
        _run_mutual_information,
        {"n": 4},
        {"n": 5},
    ),
    BenchmarkSpec(
        "sampling",
        "E9+: sampled information estimate vs exact",
        _run_sampling,
        {"n": 4, "samples": 500, "seed": 0, "growth_ns": [4, 6], "growth_samples": 300},
        {
            "n": 5,
            "samples": 3000,
            "seed": 0,
            "growth_ns": [4, 6, 8, 10],
            "growth_samples": 1500,
        },
        supports_workers=True,
    ),
    BenchmarkSpec(
        "indist_degrees",
        "E3: Lemma 3.7 one-cycle degree, measured vs n(n-5)/2",
        _run_indist_degrees,
        {"n": 8},
        {"n": 11},
    ),
    BenchmarkSpec(
        "ablations",
        "A1-A4: crossing ports, matching, rank and PLS engines, ablated",
        _run_ablations,
        {"n": 8, "rounds": 2, "graph_n": 6, "e_n": 4, "pls_n": 8},
        {"n": 12, "rounds": 3, "graph_n": 7, "e_n": 6, "pls_n": 32},
    ),
    BenchmarkSpec(
        "resilience",
        "R1: fault-sweep degradation curves + zero-rate invisibility",
        _run_resilience,
        {"n": 6, "trials": 3, "rate": 0.1, "seed": 0},
        {"n": 8, "trials": 8, "rate": 0.1, "seed": 0},
        supports_workers=True,
    ),
    BenchmarkSpec(
        "spans",
        "P1: span profiler tree shape + result transparency under a recorder",
        _run_spans,
        {"n": 16, "rounds": 4},
        {"n": 64, "rounds": 8},
    ),
    BenchmarkSpec(
        "parallel",
        "P2: serial vs fan-out exhaustive scan, identity-gated",
        _run_parallel,
        {"n": 4, "alphabet": ["0", "1", "2"], "workers": 4},
        {"n": 6, "alphabet": ["0", "1", "2"], "workers": 4},
        supports_cache=True,
    ),
    BenchmarkSpec(
        "kernels",
        "P3/P10: rank-engine crossover, identity-gated",
        _run_kernels,
        {"rank_n": 5, "e_n": 8, "dense_size": 60, "sparse_size": 200},
        {"rank_n": 6, "e_n": 8, "dense_size": 300, "sparse_size": 300},
        supports_kernel=True,
    ),
    BenchmarkSpec(
        "costs",
        "P4: symbolic cost conformance + ledger on/off overhead probe",
        _run_costs,
        {"quick_specs": True, "n": 16, "rounds": 4, "repeats": 3},
        {"quick_specs": False, "n": 64, "rounds": 8, "repeats": 5},
    ),
]

_SPEC_BY_NAME: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in _SPECS}


def bench_names() -> List[str]:
    """All harness benchmark names, in registry order."""
    return [spec.name for spec in _SPECS]


class BenchmarkHarness:
    """Runs harness benchmarks and writes ``BENCH_<name>.json`` files.

    Parameters
    ----------
    out_dir:
        Where the JSON files land (created if missing). ``None`` disables
        writing (results are only returned).
    quick:
        Use each spec's quick parameter set (CI smoke) instead of the
        full seed parameters.
    workers:
        Worker processes for specs whose kernels support fan-out
        (``supports_workers=True``): injected into their params as
        ``workers`` so the recorded ``BENCH_<name>.json`` shows exactly
        what ran. Serial specs ignore it. History records carry the
        value too (:func:`repro.obs.regress.history_record`), so the
        regression detector never compares across worker counts.
    kernel:
        Compute-kernel mode (one of :data:`repro.kernels.KERNEL_MODES`)
        for specs with ``supports_kernel=True``: injected into their
        params as ``kernel``. History records carry it exactly like
        ``workers`` -- a fast-engine wall time is not comparable to a
        reference-engine one.
    cache_dir:
        Result-cache directory for specs with ``supports_cache=True``:
        injected into their params as ``cache_dir`` so the warm-path
        leg runs against it. ``None`` (the default) keeps the harness
        cache-disabled -- benches measure real compute, and wall times
        stay comparable across runs. History records carry
        ``cache="on"/"off"`` so the regression detector never compares
        warm-cache lookups against cold computation.
    """

    def __init__(
        self,
        out_dir: Optional[str] = ".",
        quick: bool = False,
        workers: int = 1,
        kernel: str = "auto",
        cache_dir: Optional[str] = None,
    ):
        from repro.kernels import resolve_kernel

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        resolve_kernel(kernel)  # raises ValueError on unknown modes
        self.out_dir = out_dir
        self.quick = quick
        self.workers = int(workers)
        self.kernel = str(kernel)
        self.cache_dir = cache_dir

    def run_one(self, name: str) -> BenchmarkResult:
        spec = _SPEC_BY_NAME.get(name)
        if spec is None:
            raise KeyError(
                f"unknown benchmark {name!r}; known: {', '.join(bench_names())}"
            )
        params = spec.params(self.quick)
        if spec.supports_workers:
            params["workers"] = self.workers
        if spec.supports_kernel:
            params["kernel"] = self.kernel
        if spec.supports_cache and self.cache_dir is not None:
            params["cache_dir"] = self.cache_dir
        registry = MetricsRegistry()
        ledger = CostLedger()
        with use_registry(registry), use_ledger(ledger):
            start = time.perf_counter()
            measured, predicted, ok = spec.runner(params)
            wall = time.perf_counter() - start
        result = BenchmarkResult(
            name=spec.name,
            description=spec.description,
            quick=self.quick,
            params=params,
            wall_time_seconds=wall,
            measured=measured,
            predicted=predicted,
            ok=bool(ok),
            metrics=registry.snapshot(),
            costs=ledger.summary(),
        )
        if self.out_dir is not None:
            result.path = self._write(result)
        return result

    def run(self, names: Optional[Sequence[str]] = None) -> List[BenchmarkResult]:
        return [self.run_one(name) for name in (names or bench_names())]

    def _write(self, result: BenchmarkResult) -> str:
        payload = result.to_payload()
        problems = validate_bench_payload(payload)
        if problems:  # a harness bug, not a user error -- fail loudly
            raise ValueError(
                f"BENCH_{result.name}.json failed its own schema: {problems}"
            )
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"BENCH_{result.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return path


def load_bench_payloads(directory: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Read every ``BENCH_*.json`` in a directory, sorted by name."""
    out: List[Tuple[str, Dict[str, Any]]] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            path = os.path.join(directory, entry)
            with open(path, "r", encoding="utf-8") as handle:
                out.append((path, json.load(handle)))
    return out
