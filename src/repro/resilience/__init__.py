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
  a schema-versioned ``fault_sweep`` JSON payload and validator.

:func:`graceful_interrupts` rounds it out: inside the context manager
SIGTERM raises ``KeyboardInterrupt`` so Ctrl-C and scheduler kills take
the same exit path, and registered flush hooks
(:func:`register_flush_hook`) run on the way out so open session logs
are sealed before the interrupt propagates. :mod:`repro.resilience.retry`
supplies the shared transient-``OSError`` retry policy used by
cache writes and session-log appends.
"""

from repro.resilience.budget import Budget
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultRun,
    ScheduledFault,
)
from repro.resilience.harness import (
    FAULT_SWEEP_SCHEMA_VERSION,
    DegradationCurve,
    DegradationPoint,
    FaultSweepReport,
    HARNESS_ALGORITHMS,
    fault_sweep,
    validate_fault_sweep_payload,
)
from repro.resilience.interrupt import (
    graceful_interrupts,
    register_flush_hook,
    unregister_flush_hook,
)
from repro.resilience.retry import (
    DEFAULT_RETRY_ATTEMPTS,
    DEFAULT_RETRY_BASE_DELAY,
    retry_transient,
    set_retry_sleep,
)

__all__ = [
    "Budget",
    "DEFAULT_RETRY_ATTEMPTS",
    "DEFAULT_RETRY_BASE_DELAY",
    "DegradationCurve",
    "DegradationPoint",
    "FAULT_KINDS",
    "FAULT_SWEEP_SCHEMA_VERSION",
    "FaultEvent",
    "FaultPlan",
    "FaultRun",
    "FaultSweepReport",
    "HARNESS_ALGORITHMS",
    "ScheduledFault",
    "fault_sweep",
    "graceful_interrupts",
    "register_flush_hook",
    "retry_transient",
    "set_retry_sleep",
    "unregister_flush_hook",
    "validate_fault_sweep_payload",
]
