"""Communication-cost observability: ledger, calculus, conformance.

Three layers, mirroring the structure of :mod:`repro.obs`:

* :mod:`repro.costs.ledger` -- a thread-safe :class:`CostLedger`
  accumulating measured bits per (vertex, round, phase), opt-in via
  :func:`use_ledger` with the same one-``None``-check disabled path as
  the metrics registry; the per-run view is ``RunResult.cost_summary``
  and the trace-v4 ``cost_summary`` event;
* :mod:`repro.costs.calculus` -- closed-form round/bit expressions in
  symbols (n, t, ...), evaluated exactly by a dependency-free tree walk
  and cross-checked through sympy when it is importable
  (:data:`HAVE_SYMPY`); results are identical either way;
* :mod:`repro.costs.specs` / :mod:`repro.costs.conformance` -- the
  bundled per-protocol cost declarations and the checker that
  substitutes finite n into each one and asserts the measured ledger
  matches (or, for Omega floors, clears) the prediction. Exposed as
  ``repro cost-check`` and ``tests/costs/``.
"""

from repro import lazy_getattr

# Every name is re-exported lazily (PEP 562), so the simulator's import
# of the ledger does not load the conformance checker.
_LAZY_EXPORTS = {
    "HAVE_SYMPY": "repro.costs.calculus",
    "Expr": "repro.costs.calculus",
    "bits_width": "repro.costs.calculus",
    "ceil": "repro.costs.calculus",
    "dfact": "repro.costs.calculus",
    "evaluate": "repro.costs.calculus",
    "floor": "repro.costs.calculus",
    "log2": "repro.costs.calculus",
    "symbols": "repro.costs.calculus",
    "sympy_cross_check": "repro.costs.calculus",
    "ConformanceResult": "repro.costs.conformance",
    "check_all": "repro.costs.conformance",
    "check_spec": "repro.costs.conformance",
    "DEFAULT_PHASE": "repro.costs.ledger",
    "CostLedger": "repro.costs.ledger",
    "cost_summary_from_broadcasts": "repro.costs.ledger",
    "get_ledger": "repro.costs.ledger",
    "message_cost_bits": "repro.costs.ledger",
    "run_cost_summary": "repro.costs.ledger",
    "set_ledger": "repro.costs.ledger",
    "use_ledger": "repro.costs.ledger",
    "CostSpec": "repro.costs.specs",
    "MeasuredCost": "repro.costs.specs",
    "all_specs": "repro.costs.specs",
    "get_spec": "repro.costs.specs",
    "spec_names": "repro.costs.specs",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
