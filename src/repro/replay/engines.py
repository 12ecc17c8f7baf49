"""The execution engines a session can record and re-run.

A recorded session is only as replayable as its header: ``params`` must
pin *everything* the execution depends on. This module is the registry
that maps a ``(kind, params)`` pair to a deterministic execution --
used identically by ``repro record`` (live, writing the session) and
``repro replay`` (re-executing from the header), which is what makes
record -> replay a pure function comparison rather than a best-effort
diff.

Kinds
-----
``run``
    One simulator execution of a harness algorithm on a cycle instance,
    optionally under fault and/or network plans. The rewindable kind:
    every round becomes a step (broadcasts, per-vertex digests, fault and
    delivery events, RNG digests). Runs with a private
    :class:`~repro.costs.CostLedger` so ``cost_summary`` lands in the
    recorded result -- replay must reproduce it bit-for-bit.
``exhaustive`` / ``sampling`` / ``ranks`` / ``fault-sweep``
    The repo's batch engines. Steps are the engines' natural units
    (a report, a rank row, a sweep cell); results are the engines'
    payloads with volatile fields (timestamps, wall time) zeroed.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.engine.request import ENGINE_KINDS
from repro.errors import SessionError
from repro.replay.store import SessionStore

__all__ = ["execute_record", "execute_run", "record_session"]


def execute_run(params: Mapping[str, Any], session=None, trace=None, metrics=None):
    """Run one simulator execution from a ``run`` header; returns RunResult.

    Exposed separately from :func:`execute_record` so golden tests (and
    the rewind cursor's branch re-execution) can compare full
    :class:`~repro.core.simulator.RunResult` objects, not just payloads.
    The body lives in :func:`repro.engine.core.execute_run`; this is the
    session-header spelling of the same call.
    """
    from repro.engine.core import execute_run as engine_execute_run

    return engine_execute_run(params, session=session, trace=trace, metrics=metrics)


def execute_record(
    kind: str, params: Mapping[str, Any], session=None
) -> Dict[str, Any]:
    """Execute ``(kind, params)``; returns the normalized result payload.

    ``session`` (when given) receives the execution's steps as they
    happen. Payloads contain no wall-clock or host-dependent fields, so
    a recorded payload and a replayed one compare with plain equality.

    Delegates to :func:`repro.engine.core.run_record` -- the engine owns
    the execution bodies now, and the session schema pins their payload
    shapes: any engine change that altered a payload here would break
    replay of previously recorded sessions.
    """
    from repro.engine.core import run_record

    return run_record(kind, params, session=session)


def record_session(
    kind: str,
    params: Mapping[str, Any],
    sink,
    run_id: Optional[str] = None,
    fsync: bool = False,
) -> Tuple[Dict[str, Any], SessionStore]:
    """Execute ``(kind, params)`` while recording it into ``sink``.

    Returns ``(payload, store)`` with the store sealed (``session_end``,
    ``complete=true``) on success. On ``KeyboardInterrupt`` the store is
    sealed as interrupted (the
    :func:`~repro.resilience.graceful_interrupts` flush hook does the
    same if the interrupt fires elsewhere) and the interrupt re-raises,
    leaving a valid partial session behind.
    """
    if kind not in ENGINE_KINDS:
        raise SessionError(f"unknown session kind {kind!r}; known: {ENGINE_KINDS}")
    store = SessionStore(sink, run_id=run_id, fsync=fsync)
    store.start(kind, dict(params))
    try:
        payload = execute_record(kind, params, session=store)
    except KeyboardInterrupt:
        store.interrupt()
        raise
    except BaseException:
        store.close()
        raise
    store.write_result(payload)
    store.finish(complete=True)
    return payload, store
