"""The conformance checker: measured ledgers vs symbolic predictions.

For each :class:`~repro.costs.specs.CostSpec` the checker runs the
spec's measurement, substitutes the measurement's parameters into the
spec's round/bit expressions, and compares:

* ``exact`` specs must match to the bit -- the closed form *is* the
  protocol's cost, and any drift (an extra phase, a widened encoding, a
  crashed vertex miscounted at ⊥-glyph width) is a regression;
* ``floor`` specs must be cleared -- the paper's Omega statements
  evaluated at finite n, which a measured upper-bound protocol must sit
  at or above (floats are compared with a 1e-9 slack, exact ints with
  none).

Two consistency obligations ride along: when the measurement carries an
independent :class:`~repro.costs.ledger.CostLedger` count, it must equal
the transcript-derived bit total (the ledger and ``total_bits_broadcast``
agreeing is itself part of the contract); and when sympy is importable,
every expression is re-evaluated through :meth:`Expr.to_sympy` and must
agree with the dependency-free walk -- results are identical either way,
sympy only adds the self-check.

Exposed as ``repro cost-check`` (CLI) and ``tests/costs/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.costs.calculus import HAVE_SYMPY, Expr, evaluate, sympy_cross_check
from repro.costs.specs import CostSpec, MeasuredCost, all_specs, get_spec

__all__ = ["ConformanceResult", "check_all", "check_spec"]

Number = Union[int, float]

#: Slack for float-valued floor comparisons (log2 terms); exact integer
#: comparisons use none.
_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class ConformanceResult:
    """One spec's verdict: predictions, measurements, and any violations."""

    name: str
    kind: str
    quick: bool
    params: Dict[str, Any]
    env: Dict[str, Number]
    predicted_rounds: Optional[Number]
    measured_rounds: Number
    predicted_bits: Optional[Number]
    measured_bits: Number
    ledger_bits: Optional[int]
    sympy_checked: bool
    ok: bool
    problems: List[str] = field(default_factory=list)

    def row(self) -> List[Any]:
        """A table row for the ``repro cost-check`` CLI."""

        def fmt(value: Optional[Number]) -> Any:
            if value is None:
                return "-"
            return round(value, 3) if isinstance(value, float) else value

        relation = "==" if self.kind == "exact" else ">="
        return [
            self.name,
            self.kind,
            fmt(self.measured_rounds),
            "-" if self.predicted_rounds is None else f"{relation} {fmt(self.predicted_rounds)}",
            fmt(self.measured_bits),
            "-" if self.predicted_bits is None else f"{relation} {fmt(self.predicted_bits)}",
            "sympy+exact" if self.sympy_checked else "exact",
            "ok" if self.ok else "MISMATCH",
        ]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "quick": self.quick,
            "params": dict(self.params),
            "env": dict(self.env),
            "predicted_rounds": self.predicted_rounds,
            "measured_rounds": self.measured_rounds,
            "predicted_bits": self.predicted_bits,
            "measured_bits": self.measured_bits,
            "ledger_bits": self.ledger_bits,
            "sympy_checked": self.sympy_checked,
            "ok": self.ok,
            "problems": list(self.problems),
        }


def _conforms(kind: str, measured: Number, predicted: Number) -> bool:
    if kind == "exact":
        return measured == predicted
    # floor: measured must clear the bound; only float bounds get slack
    if isinstance(predicted, float):
        return measured >= predicted - _FLOAT_SLACK
    return measured >= predicted


def _check_expr(
    kind: str,
    label: str,
    expr: Optional[Expr],
    measured_value: Number,
    env: Dict[str, Number],
    problems: List[str],
) -> Optional[Number]:
    """Evaluate one expression, compare, cross-check; returns the prediction."""
    if expr is None:
        return None
    predicted = evaluate(expr, env)
    if not _conforms(kind, measured_value, predicted):
        relation = "==" if kind == "exact" else ">="
        problems.append(
            f"{label}: measured {measured_value} fails {relation} "
            f"{predicted} (spec {expr} at {env})"
        )
    if HAVE_SYMPY:
        # raises ArithmeticError if the two backends ever disagree --
        # that is a calculus bug, not a protocol mismatch
        sympy_cross_check(expr, env)
    return predicted


def check_spec(spec: CostSpec, quick: bool = True) -> ConformanceResult:
    """Run one spec's measurement and compare against its closed forms."""
    params = spec.params(quick)
    cost: MeasuredCost = spec.measure(params)
    problems: List[str] = []
    predicted_rounds = _check_expr(
        spec.kind, "rounds", spec.rounds_expr, cost.rounds, cost.env, problems
    )
    predicted_bits = _check_expr(
        spec.kind, "bits", spec.bits_expr, cost.bits, cost.env, problems
    )
    if cost.ledger_bits is not None and cost.ledger_bits != cost.bits:
        problems.append(
            f"ledger disagreement: CostLedger counted {cost.ledger_bits} bits "
            f"but the transcript total is {cost.bits}"
        )
    return ConformanceResult(
        name=spec.name,
        kind=spec.kind,
        quick=quick,
        params=params,
        env=dict(cost.env),
        predicted_rounds=predicted_rounds,
        measured_rounds=cost.rounds,
        predicted_bits=predicted_bits,
        measured_bits=cost.bits,
        ledger_bits=cost.ledger_bits,
        sympy_checked=HAVE_SYMPY,
        ok=not problems,
        problems=problems,
    )


def check_all(
    quick: bool = True, names: Optional[Sequence[str]] = None
) -> List[ConformanceResult]:
    """Check the named specs (default: every bundled spec), in order."""
    if names is None:
        chosen = all_specs()
    else:
        chosen = [get_spec(name) for name in names]
    return [check_spec(spec, quick=quick) for spec in chosen]
