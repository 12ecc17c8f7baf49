"""Bundled symbolic cost specs for the repo's protocols and experiments.

Each :class:`CostSpec` pairs a closed-form round/bit expression (built
from :mod:`repro.costs.calculus`) with a ``measure`` function that runs
the real protocol under a fresh :class:`~repro.costs.ledger.CostLedger`
and reports what the simulator actually spent. The conformance layer
substitutes the measurement's parameters into the expressions and
compares -- exactly (``kind="exact"``) or as a declared lower-bound
floor (``kind="floor"``, the paper's Omega statements at finite n).

Closed forms encoded here (W(x) = max(1, floor(log2 x) + 1), the fixed
ID width of :func:`repro.algorithms.bit_codec.id_bit_width`):

* ``constant_cycle`` -- the always-broadcast baseline: rounds = t,
  bits = n * t (every vertex spends its full BCC(1) budget each round).
* ``silent_star`` -- the always-silent algorithm: rounds = t, bits = 0
  (t rounds of ⊥ cost nothing; the ledger must agree).
* ``neighbor_exchange_kt0`` -- NeighborExchange on a one-cycle at KT-0
  with the 4n-ID space: (Delta + 1) * W phases with Delta = 2, so
  rounds = 3 * W(4n - 1) and every vertex sends one bit per round:
  bits = 3n * W(4n - 1).
* ``neighbor_exchange_kt1`` -- same at KT-1 (IDs in [0, n-1], no echo
  phase): rounds = 2 * W(n - 1), bits = 2n * W(n - 1).
* ``two_partition_simulation`` -- the Section 4.3 Alice/Bob simulation
  of an r-round KT-1 algorithm, r = 2 * W(3n): one turn per party per
  simulated round at 2 bits per hosted vertex (N = 2n), so
  turns = 2r = 4 * W(3n) and bits = 2 * 2n * r = 8n * W(3n).
* ``omega_total_bits_kt1`` (floor) -- Theorem 4.4's Omega(n log n)
  total-bit bound at finite n: measured NeighborExchange KT-1 bits
  must sit at or above n * log2(n).
* ``multicycle_round_floor`` (floor) -- Theorem 4.4's round bound via
  Lemma 4.1: rank(E_n) = (n-1)!!, so any KT-1 BCC(1) algorithm needs
  >= log2((n-1)!!) / (4n) rounds; the measured NeighborExchange round
  count must clear that floor.

All experiment imports are deferred into the measure bodies (the
:mod:`repro.obs.bench` idiom), so this module is eagerly importable
from ``repro.costs.__init__`` without cycles through ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.costs.calculus import Expr, bits_width, dfact, log2, symbols

__all__ = ["CostSpec", "MeasuredCost", "all_specs", "get_spec", "spec_names"]

Number = Union[int, float]


@dataclass(frozen=True)
class MeasuredCost:
    """What one protocol execution actually spent.

    ``env`` maps symbol names to the concrete parameter values the
    conformance checker substitutes into the spec's expressions.
    ``ledger_bits`` is the CostLedger's independent count of the same
    execution (None when the measure has no ledger-instrumented path);
    conformance additionally asserts it equals ``bits``.
    """

    rounds: Number
    bits: Number
    env: Dict[str, Number]
    ledger_bits: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CostSpec:
    """A protocol's declared communication cost, checkable at finite n."""

    name: str
    description: str
    #: "exact": measured == predicted. "floor": measured >= predicted
    #: (a lower bound the measurement must clear, never match).
    kind: str
    rounds_expr: Optional[Expr]
    bits_expr: Optional[Expr]
    measure: Callable[[Dict[str, Any]], MeasuredCost]
    quick_params: Dict[str, Any]
    full_params: Dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "floor"):
            raise ValueError(f"kind must be 'exact' or 'floor', got {self.kind!r}")
        if self.rounds_expr is None and self.bits_expr is None:
            raise ValueError(f"spec {self.name!r} declares no expressions")

    def params(self, quick: bool) -> Dict[str, Any]:
        return dict(self.quick_params if quick else self.full_params)


# ----------------------------------------------------------------------
# measure functions (imports deferred, bench.py-style)
# ----------------------------------------------------------------------
def _simulator_measure(params: Dict[str, Any], factory_name: str) -> MeasuredCost:
    """Shared body for the fixed-budget simulator specs."""
    from repro.core import BCC1_KT0, ConstantAlgorithm, SilentAlgorithm, Simulator
    from repro.costs.ledger import CostLedger, use_ledger
    from repro.instances import one_cycle_instance

    factory = {"constant": ConstantAlgorithm, "silent": SilentAlgorithm}[factory_name]
    n, t = params["n"], params["rounds"]
    ledger = CostLedger()
    with use_ledger(ledger):
        result = Simulator(BCC1_KT0).run(one_cycle_instance(n, kt=0), factory, t)
    return MeasuredCost(
        rounds=result.rounds_executed,
        bits=result.total_bits_broadcast(),
        env={"n": n, "t": t},
        ledger_bits=ledger.total_bits(),
        details={"cost_summary": result.cost_summary},
    )


def _measure_constant(params: Dict[str, Any]) -> MeasuredCost:
    return _simulator_measure(params, "constant")


def _measure_silent(params: Dict[str, Any]) -> MeasuredCost:
    return _simulator_measure(params, "silent")


def _measure_neighbor_exchange(params: Dict[str, Any], kt: int) -> MeasuredCost:
    from repro.algorithms import connectivity_factory
    from repro.core import BCC1_KT0, BCC1_KT1, Simulator
    from repro.costs.ledger import CostLedger, use_ledger
    from repro.instances import one_cycle_instance

    n = params["n"]
    model = BCC1_KT0 if kt == 0 else BCC1_KT1
    ledger = CostLedger()
    with use_ledger(ledger):
        result = Simulator(model).run_until_done(
            one_cycle_instance(n, kt=kt), connectivity_factory(2), 10_000
        )
    return MeasuredCost(
        rounds=result.rounds_executed,
        bits=result.total_bits_broadcast(),
        env={"n": n},
        ledger_bits=ledger.total_bits(),
        details={"cost_summary": result.cost_summary},
    )


def _measure_ne_kt0(params: Dict[str, Any]) -> MeasuredCost:
    return _measure_neighbor_exchange(params, kt=0)


def _measure_ne_kt1(params: Dict[str, Any]) -> MeasuredCost:
    return _measure_neighbor_exchange(params, kt=1)


def _measure_two_partition(params: Dict[str, Any]) -> MeasuredCost:
    import random

    from repro.algorithms import components_factory, id_bit_width, neighbor_exchange_rounds
    from repro.costs.ledger import CostLedger, use_ledger
    from repro.partitions import random_perfect_matching
    from repro.twoparty import BCCSimulationProtocol

    n, seed = params["n"], params["seed"]
    rng = random.Random(seed)
    pa = random_perfect_matching(n, rng)
    pb = random_perfect_matching(n, rng)
    bcc_rounds = neighbor_exchange_rounds(1, 2, id_bit_width(3 * n))
    proto = BCCSimulationProtocol(
        "two_partition", components_factory(2), bcc_rounds, mode="components"
    )
    ledger = CostLedger()
    with use_ledger(ledger):
        result = proto.run(pa, pb)
    return MeasuredCost(
        rounds=result.rounds,  # protocol turns, 2 per simulated BCC round
        bits=result.total_bits,
        env={"n": n},
        ledger_bits=ledger.total_bits(),
        details={
            "bcc_rounds": bcc_rounds,
            "alice_bits": result.alice_bits,
            "bob_bits": result.bob_bits,
            "join_correct": result.bob_output == pa.join(pb),
            "per_phase": ledger.bits_by_phase(),
        },
    )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_n, _t = symbols("n t")
_W_KT1 = bits_width(_n - 1)  # ID width for IDs 0..n-1
_W_KT0 = bits_width(4 * _n - 1)  # KT-0 runs in the padded 4n ID space
_W_SIM = bits_width(3 * _n)  # the reduction graph's ID space tops out at 3n

_SPECS: List[CostSpec] = [
    CostSpec(
        name="constant_cycle",
        description="always-broadcast baseline on a one-cycle: full budget every round",
        kind="exact",
        rounds_expr=_t,
        bits_expr=_n * _t,
        measure=_measure_constant,
        quick_params={"n": 8, "rounds": 3},
        full_params={"n": 32, "rounds": 6},
    ),
    CostSpec(
        name="silent_star",
        description="always-silent algorithm: t rounds of ⊥ cost exactly 0 bits",
        kind="exact",
        rounds_expr=_t,
        bits_expr=_n * 0,
        measure=_measure_silent,
        quick_params={"n": 8, "rounds": 3},
        full_params={"n": 32, "rounds": 6},
    ),
    CostSpec(
        name="neighbor_exchange_kt0",
        description="NeighborExchange KT-0 on a one-cycle: 3W(4n-1) rounds, one bit per vertex per round",
        kind="exact",
        rounds_expr=3 * _W_KT0,
        bits_expr=3 * _n * _W_KT0,
        measure=_measure_ne_kt0,
        quick_params={"n": 8},
        full_params={"n": 32},
    ),
    CostSpec(
        name="neighbor_exchange_kt1",
        description="NeighborExchange KT-1 on a one-cycle: 2W(n-1) rounds, 2nW(n-1) bits",
        kind="exact",
        rounds_expr=2 * _W_KT1,
        bits_expr=2 * _n * _W_KT1,
        measure=_measure_ne_kt1,
        quick_params={"n": 8},
        full_params={"n": 32},
    ),
    CostSpec(
        name="two_partition_simulation",
        description="Section 4.3 Alice/Bob simulation: 4W(3n) turns, 8nW(3n) bits",
        kind="exact",
        rounds_expr=4 * _W_SIM,
        bits_expr=8 * _n * _W_SIM,
        measure=_measure_two_partition,
        quick_params={"n": 4, "seed": 5},
        full_params={"n": 8, "seed": 5},
    ),
    CostSpec(
        name="omega_total_bits_kt1",
        description="Theorem 4.4 floor: measured KT-1 connectivity bits >= n log2 n",
        kind="floor",
        rounds_expr=None,
        bits_expr=_n * log2(_n),
        measure=_measure_ne_kt1,
        quick_params={"n": 8},
        full_params={"n": 32},
    ),
    CostSpec(
        name="multicycle_round_floor",
        description="Theorem 4.4 / Lemma 4.1 floor: rounds >= log2((n-1)!!) / 4n",
        kind="floor",
        rounds_expr=log2(dfact(_n - 1)) / (4 * _n),
        bits_expr=None,
        measure=_measure_ne_kt1,
        quick_params={"n": 8},
        full_params={"n": 32},
    ),
]

_SPEC_BY_NAME: Dict[str, CostSpec] = {spec.name: spec for spec in _SPECS}


def all_specs() -> List[CostSpec]:
    """All bundled cost specs, in registry order."""
    return list(_SPECS)


def spec_names() -> List[str]:
    return [spec.name for spec in _SPECS]


def get_spec(name: str) -> CostSpec:
    spec = _SPEC_BY_NAME.get(name)
    if spec is None:
        raise KeyError(
            f"unknown cost spec {name!r}; known: {', '.join(spec_names())}"
        )
    return spec
