"""Graceful-degradation measurement: algorithms under faulty channels.

The upper-bound algorithms in :mod:`repro.algorithms` are correct in the
clean BCC model; this harness measures how *gracefully* each one fails as
an adversarial channel (see :mod:`repro.resilience.faults`) corrupts,
drops, or silences broadcasts. For each (algorithm, fault kind, fault
rate) cell it runs seeded trials over a mixed YES/NO instance family
(one-cycle vs two-cycle covers -- the paper's own hard inputs) and
records the correctness rate, producing one degradation curve per
(algorithm, kind) pair.

The output is a schema-versioned JSON payload (``fault_sweep`` schema
version 1) mirroring the ``BENCH_*.json`` conventions; its validator
lives in :mod:`repro.resilience.schema`, so checking a payload (a
cached ``fault-sweep`` hit, the CI smoke step) loads none of the sweep
machinery this module imports.

Everything is deterministic under a fixed ``seed``: per-trial fault-plan
seeds and instance choices are derived arithmetically (no ``hash()``,
which is randomized across processes), so a sweep is reproducible
evidence, not an anecdote.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import (
    boruvka_connectivity_factory,
    boruvka_max_rounds,
    connectivity_factory,
    full_adjacency_connectivity_factory,
    id_bit_width,
    mt16_connectivity_factory,
    mt16_rounds,
    neighbor_exchange_rounds,
)
from repro.core.algorithm import NO, YES, AlgorithmFactory
from repro.core.decision import decision_of_run
from repro.core.model import BCCModel
from repro.core.simulator import Simulator
from repro.errors import FaultInjectionError
from repro.instances import one_cycle_instance, two_cycle_instance
from repro.obs.metrics import MetricsRegistry, get_registry

# repro.obs.sketches is imported lazily inside the functions that use it:
# only population summaries need it.
from repro.obs.stream import get_bus
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.schema import FAULT_SWEEP_SCHEMA_VERSION

__all__ = [
    "DegradationCurve",
    "DegradationPoint",
    "FaultSweepReport",
    "HARNESS_ALGORITHMS",
    "fault_sweep",
]



@dataclass(frozen=True)
class _AlgorithmSpec:
    """How to instantiate one harness algorithm at size n."""

    name: str
    kt: int

    def model(self, n: int) -> BCCModel:
        if self.name == "boruvka":
            return BCCModel(bandwidth=id_bit_width(n - 1), kt=1)
        return BCCModel(bandwidth=1, kt=self.kt)

    def factory(self, n: int) -> AlgorithmFactory:
        if self.name == "neighbor_exchange":
            return connectivity_factory(max_degree=2)
        if self.name == "flooding":
            return full_adjacency_connectivity_factory()
        if self.name == "boruvka":
            return boruvka_connectivity_factory()
        if self.name == "sketch":
            return mt16_connectivity_factory(arboricity=2)
        raise FaultInjectionError(f"unknown harness algorithm {self.name!r}")

    def rounds(self, n: int) -> int:
        if self.name == "neighbor_exchange":
            return neighbor_exchange_rounds(1, 2, id_bit_width(n - 1))
        if self.name == "flooding":
            return n
        if self.name == "boruvka":
            return boruvka_max_rounds(n)
        if self.name == "sketch":
            return mt16_rounds(arboricity=2)
        raise FaultInjectionError(f"unknown harness algorithm {self.name!r}")


#: The algorithms the fault harness knows how to evaluate.
HARNESS_ALGORITHMS: Dict[str, _AlgorithmSpec] = {
    "neighbor_exchange": _AlgorithmSpec("neighbor_exchange", kt=1),
    "flooding": _AlgorithmSpec("flooding", kt=1),
    "boruvka": _AlgorithmSpec("boruvka", kt=1),
    "sketch": _AlgorithmSpec("sketch", kt=1),
}


@dataclass(frozen=True)
class DegradationPoint:
    """One (fault rate) cell of a degradation curve."""

    rate: float
    trials: int
    correct: int
    faults_injected: int
    mean_rounds: float

    @property
    def correctness_rate(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "trials": self.trials,
            "correct": self.correct,
            "correctness_rate": self.correctness_rate,
            "faults_injected": self.faults_injected,
            "mean_rounds": self.mean_rounds,
        }


@dataclass(frozen=True)
class DegradationCurve:
    """Correctness rate vs fault rate for one (algorithm, fault kind)."""

    algorithm: str
    fault_kind: str
    points: Tuple[DegradationPoint, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "fault_kind": self.fault_kind,
            "points": [p.as_dict() for p in self.points],
        }


@dataclass(frozen=True)
class FaultSweepReport:
    """The full sweep: one curve per (algorithm, fault kind)."""

    n: int
    trials: int
    seed: int
    wall_time_seconds: float
    curves: Tuple[DegradationCurve, ...]
    #: Population sketches over every trial of the sweep (name ->
    #: serialized sketch state, see :mod:`repro.obs.sketches`): the
    #: rounds-executed quantile sketch, the faults-per-trial moments,
    #: and the correct/wrong outcome counts. A pure function of the
    #: trial set, so serial and sharded sweeps carry identical states.
    population: Optional[Dict[str, Dict[str, Any]]] = None

    def as_payload(self) -> Dict[str, Any]:
        """The schema-versioned JSON payload (``fault_sweep`` schema v1;
        the optional ``population`` section is an additive extension the
        validator accepts but does not require)."""
        payload = {
            "schema_version": FAULT_SWEEP_SCHEMA_VERSION,
            "kind": "fault_sweep",
            "created_unix": time.time(),
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "wall_time_seconds": self.wall_time_seconds,
            "curves": [c.as_dict() for c in self.curves],
        }
        if self.population is not None:
            payload["population"] = self.population
        return payload

    def rows(self) -> List[List[Any]]:
        """Flat rows for the CLI table: one per (algorithm, kind, rate)."""
        out = []
        for curve in self.curves:
            for p in curve.points:
                out.append(
                    [
                        curve.algorithm,
                        curve.fault_kind,
                        p.rate,
                        p.trials,
                        p.correct,
                        round(p.correctness_rate, 4),
                        p.faults_injected,
                        round(p.mean_rounds, 2),
                    ]
                )
        return out


def _trial_seed(seed: int, a_idx: int, k_idx: int, r_idx: int, trial: int) -> int:
    """Deterministic per-trial seed; pure arithmetic (hash() is randomized)."""
    return (
        seed * 1_000_003 + a_idx * 99_991 + k_idx * 9_973 + r_idx * 1_009 + trial
    ) % (2**31 - 1)


def _trial_instance(n: int, kt: int, trial: int, trial_seed: int):
    """Alternate YES (one-cycle) and NO (two-cycle) instances, seeded split."""
    if trial % 2 == 0:
        return one_cycle_instance(n, kt=kt), YES
    split = 3 + (trial_seed % max(1, n - 5))  # split in [3, n-3]
    return two_cycle_instance(n, split, kt=kt), NO


def _sweep_cell(
    simulator: Simulator,
    factory: AlgorithmFactory,
    rounds: int,
    n: int,
    kt: int,
    kind: str,
    rate: float,
    trials: int,
    seed: int,
    a_idx: int,
    k_idx: int,
    r_idx: int,
) -> Tuple[int, int, int, Dict[str, Dict[str, Any]]]:
    """One (algorithm, kind, rate) cell: ``(correct, faults,
    rounds_total, population)``.

    Pure given its arguments: every per-trial seed is derived
    arithmetically from the cell coordinates, so every worker count
    computes identical cells. ``population`` is the
    cell's per-trial sketch states (rounds quantiles, faults moments,
    outcome counts) serialized for the parent's order-invariant
    :func:`repro.obs.sketches.merge_population` fold.
    """
    from repro.obs.sketches import MomentsSketch, QuantileSketch, TopKSketch

    correct = 0
    faults = 0
    rounds_total = 0
    rounds_sketch = QuantileSketch()
    faults_sketch = MomentsSketch()
    outcome_sketch = TopKSketch()
    for trial in range(trials):
        tseed = _trial_seed(seed, a_idx, k_idx, r_idx, trial)
        instance, truth = _trial_instance(n, kt, trial, tseed)
        plan = (
            FaultPlan.single_rate(kind, rate, seed=tseed)
            if rate > 0.0
            else None
        )
        result = simulator.run(instance, factory, rounds, faults=plan)
        trial_faults = len(result.fault_events)
        faults += trial_faults
        rounds_total += result.rounds_executed
        ok = decision_of_run(result) == truth
        if ok:
            correct += 1
        rounds_sketch.update(float(result.rounds_executed))
        faults_sketch.update(float(trial_faults))
        outcome_sketch.update("correct" if ok else "wrong")
    population = {
        "rounds": rounds_sketch.to_dict(),
        "faults": faults_sketch.to_dict(),
        "outcomes": outcome_sketch.to_dict(),
    }
    return correct, faults, rounds_total, population


def _fault_cell_worker(payload: Tuple) -> Dict[str, Any]:
    """Run one sweep cell (module-level: picklable).

    ``payload`` is ``(name, a_idx, kind, k_idx, rate, r_idx, n, trials,
    seed, metrics, trace)``. Cells are pure functions of their
    coordinates, so each builds its own Simulator (construction emits
    nothing). ``metrics`` and ``trace`` are the parent's sinks on the
    in-process-only map (``workers=1``, or any run with a trace) and
    None otherwise, where a cell may run in the parent or in a pool
    worker; the per-cell counters are incremented parent-side, in cell
    order, either way.
    """
    name, a_idx, kind, k_idx, rate, r_idx, n, trials, seed, metrics, trace = payload
    spec = HARNESS_ALGORITHMS[name]
    simulator = Simulator(spec.model(n), metrics=metrics, trace=trace)
    correct, faults, rounds_total, population = _sweep_cell(
        simulator,
        spec.factory(n),
        spec.rounds(n),
        n,
        spec.kt,
        kind,
        rate,
        trials,
        seed,
        a_idx,
        k_idx,
        r_idx,
    )
    return {
        "correct": correct,
        "faults": faults,
        "rounds_total": rounds_total,
        "population": population,
    }


def fault_sweep(
    algorithms: Sequence[str] = ("neighbor_exchange", "flooding", "boruvka", "sketch"),
    kinds: Sequence[str] = FAULT_KINDS,
    rates: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    n: int = 8,
    trials: int = 10,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
    trace=None,
    workers: int = 1,
    session=None,
    cell_cache=None,
) -> FaultSweepReport:
    """Run the full (algorithm x kind x rate) degradation sweep.

    ``n`` must be >= 6 so both one-cycle and two-cycle (split >= 3)
    instances exist. When ``metrics`` is given (or installed process-wide)
    the sweep records ``resilience.trials_run`` and
    ``resilience.faults_injected``; pass ``trace`` to stream the
    underlying simulator runs (including schema-v2 ``fault`` events).

    The (algorithm, kind, rate) cells are the shards: they run
    in-process, and with ``workers > 1`` the cells left once the
    executor's threshold has passed run over a process pool. Every cell is
    a pure function of its coordinates (per-trial seeds are derived
    arithmetically), so the curves -- and the per-cell metric totals,
    which the parent increments in cell order -- are identical for every
    worker count. A ``trace`` stream is inherently ordered, so tracing
    forces the in-process map regardless of ``workers``; on that map the
    ``trace`` and ``metrics`` sinks reach every cell's simulator.

    ``session`` (a :class:`repro.replay.SessionStore`) records one step
    per cell: steps go to per-shard segments in completion order and are
    merged back in cell order
    (:meth:`~repro.replay.SessionStore.merge_shard_steps`), so the
    recorded session is identical for every worker count.

    ``cell_cache`` (a :class:`repro.cache.ShardCache` bound to this
    sweep's ``(n, trials, seed)`` -- deliberately *not* to its
    algorithm/kind/rate lists) memoizes individual cells: every cell is
    a pure function of its grid coordinates plus that binding, so a
    tail-extended or overlapping grid recomputes only its new cells.
    Cached cells emit the same bus events and session steps as fresh
    ones, but do not run trials -- they count toward
    ``resilience.cells_cached`` instead of ``resilience.trials_run``.
    A ``trace`` disables cell caching along with the parallel path: a
    trace stream documents an *execution*, which a cache hit elides.
    """
    if n < 6:
        raise FaultInjectionError(f"fault_sweep needs n >= 6, got {n}")
    if trials < 1:
        raise FaultInjectionError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise FaultInjectionError(f"workers must be >= 1, got {workers}")
    for name in algorithms:
        if name not in HARNESS_ALGORITHMS:
            raise FaultInjectionError(
                f"unknown algorithm {name!r}; known: {sorted(HARNESS_ALGORITHMS)}"
            )
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
            )
    for rate in rates:
        # A cell runs fault-free unless rate > 0, so a negative or NaN
        # rate would otherwise pass as a clean cell.
        if not 0.0 <= rate <= 1.0:
            raise FaultInjectionError(f"fault rates must be in [0, 1], got {rate}")
    if metrics is None:
        metrics = get_registry()
    bus = get_bus()
    start = time.perf_counter()
    curves, population = _sweep_cells(
        algorithms, kinds, rates, n, trials, seed, metrics, trace, workers,
        session, bus, cell_cache,
    )
    elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.histogram("resilience.sweep_seconds").observe(elapsed)
    if bus is not None:
        bus.publish(
            "sweep.end",
            {"cells": len(algorithms) * len(kinds) * len(rates), "n": n},
        )
    return FaultSweepReport(
        n=n,
        trials=trials,
        seed=seed,
        wall_time_seconds=elapsed,
        curves=tuple(curves),
        population=population,
    )


def _cell_item(
    name: str, a_idx: int, kind: str, k_idx: int, rate: float, r_idx: int
) -> Dict[str, Any]:
    """The cache-key item for one sweep cell.

    Grid *indices* ride alongside the names because
    :func:`_trial_seed` derives per-trial seeds from them -- the same
    cell contents at a different grid position is a different
    computation.
    """
    return {
        "algorithm": name,
        "a_idx": int(a_idx),
        "kind": kind,
        "k_idx": int(k_idx),
        "rate": float(rate),
        "r_idx": int(r_idx),
    }


def _sweep_cells(
    algorithms: Sequence[str],
    kinds: Sequence[str],
    rates: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    metrics: Optional[MetricsRegistry],
    trace,
    workers: int,
    session,
    bus,
    cell_cache,
) -> Tuple[List[DegradationCurve], Optional[Dict[str, Dict[str, Any]]]]:
    """Map the flattened (algorithm, kind, rate) cells and reassemble them.

    Cells are dispatched and reassembled in ``(a_idx, k_idx, r_idx)``
    order; the per-cell metric counters are incremented parent-side in
    that same order, and the per-cell population sketches are folded in
    that order (the fold is order-invariant anyway -- see
    :mod:`repro.obs.sketches`). Session steps go through per-shard
    segments (written in completion order, merged in shard-index order),
    so the recorded step sequence does not depend on scheduling. Live
    ``sweep.cell`` bus events fire in *completion* order -- they are a
    progress feed, not a deterministic artifact.
    """
    from repro.parallel.shard import map_units

    in_process = workers == 1 or trace is not None
    if trace is not None:
        # A trace documents an execution; a cache hit elides it.
        cell_cache = None
    sinks = (metrics, trace) if in_process else (None, None)
    payloads = [
        (name, a_idx, kind, k_idx, rate, r_idx, n, trials, seed) + sinks
        for a_idx, name in enumerate(algorithms)
        for k_idx, kind in enumerate(kinds)
        for r_idx, rate in enumerate(rates)
    ]

    def _publish(index: int, cell: Dict[str, Any]) -> None:
        name, _a_idx, kind, _k_idx, rate = payloads[index][:5]
        if bus is not None:
            bus.publish(
                "sweep.cell",
                {
                    "algorithm": name,
                    "kind": kind,
                    "rate": rate,
                    "correct": int(cell["correct"]),
                    "trials": trials,
                },
            )
        if session is not None:
            session.write_shard_step(
                index,
                f"{name}/{kind}/{rate}",
                {
                    "algorithm": name,
                    "kind": kind,
                    "rate": rate,
                    "correct": int(cell["correct"]),
                    "faults": int(cell["faults"]),
                    "rounds_total": int(cell["rounds_total"]),
                },
            )

    # Cached cells emit their bus events / session shard steps too, so
    # merge_shard_steps still sees every index and the merged step
    # sequence is byte-identical to an all-fresh run's.
    mapped = map_units(
        _fault_cell_worker,
        [(_cell_item(*payload[:6]), 1) for payload in payloads],
        lambda index, _budget: payloads[index],
        lambda cell: int(all(k in cell for k in ("correct", "faults", "rounds_total"))),
        cache=cell_cache,
        workers=1 if in_process else workers,
        metrics=metrics,
        on_result=_publish,
        span_name="resilience.sweep_map",
    )
    if session is not None:
        session.merge_shard_steps(len(payloads))
    from repro.obs.sketches import merge_population

    curves: List[DegradationCurve] = []
    population: Optional[Dict[str, Dict[str, Any]]] = None
    cells = zip(mapped.results, mapped.fresh)
    for name in algorithms:
        for kind in kinds:
            points: List[DegradationPoint] = []
            for rate in rates:
                cell, was_fresh = next(cells)
                faults = int(cell["faults"])
                population = merge_population(population, cell.get("population"))
                points.append(
                    DegradationPoint(
                        rate=rate,
                        trials=trials,
                        correct=int(cell["correct"]),
                        faults_injected=faults,
                        mean_rounds=int(cell["rounds_total"]) / trials,
                    )
                )
                if metrics is not None:
                    if was_fresh:
                        metrics.counter("resilience.trials_run").inc(trials)
                        metrics.counter("resilience.faults_injected").inc(faults)
                    else:
                        metrics.counter("resilience.cells_cached").inc()
            curves.append(DegradationCurve(name, kind, tuple(points)))
    return curves, population
