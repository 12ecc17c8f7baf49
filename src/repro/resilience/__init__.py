"""Resilience: fault injection, run budgets, graceful exits.

Three small layers that make the library's executions survivable:

* :mod:`repro.resilience.faults` -- a seeded, deterministic
  :class:`FaultPlan` (bit flips, erasures, crash-stops; per-round /
  per-vertex schedules and rates) applied by the simulator between
  broadcast and delivery;
* :mod:`repro.resilience.budget` -- a cooperative :class:`Budget`
  (wall-clock deadline + work-unit cap) checked in the long-running
  search inner loops, raising
  :class:`~repro.errors.BudgetExceededError` with a best-so-far partial;
* :mod:`repro.resilience.harness` -- the graceful-degradation harness:
  correctness-vs-fault-rate curves for the upper-bound algorithms, with
  a schema-versioned ``fault_sweep`` JSON payload, whose validator is
  :mod:`repro.resilience.schema` (light: no simulator).

:func:`graceful_interrupts` rounds it out: inside the context manager
SIGTERM raises ``KeyboardInterrupt`` so Ctrl-C and scheduler kills take
the same exit path, and registered flush hooks
(:func:`register_flush_hook`) run on the way out so open session logs
are sealed before the interrupt propagates. :mod:`repro.resilience.retry`
supplies the shared transient-``OSError`` retry policy used by
cache writes and session-log appends.
"""

from repro import lazy_getattr

# Every name is re-exported lazily (PEP 562): the cache store needs only
# the retry policy, and must not load the fault harness and with it the
# simulator.
_LAZY_EXPORTS = {
    "Budget": "repro.resilience.budget",
    "FAULT_KINDS": "repro.resilience.faults",
    "FaultEvent": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "FaultRun": "repro.resilience.faults",
    "ScheduledFault": "repro.resilience.faults",
    "DegradationCurve": "repro.resilience.harness",
    "DegradationPoint": "repro.resilience.harness",
    "FaultSweepReport": "repro.resilience.harness",
    "HARNESS_ALGORITHMS": "repro.resilience.harness",
    "fault_sweep": "repro.resilience.harness",
    "graceful_interrupts": "repro.resilience.interrupt",
    "register_flush_hook": "repro.resilience.interrupt",
    "unregister_flush_hook": "repro.resilience.interrupt",
    "DEFAULT_RETRY_ATTEMPTS": "repro.resilience.retry",
    "DEFAULT_RETRY_BASE_DELAY": "repro.resilience.retry",
    "retry_transient": "repro.resilience.retry",
    "set_retry_sleep": "repro.resilience.retry",
    "FAULT_SWEEP_SCHEMA_VERSION": "repro.resilience.schema",
    "validate_fault_sweep_payload": "repro.resilience.schema",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
