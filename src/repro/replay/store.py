"""The step-addressable session store: record once, re-execute forever.

A *session log* is a crash-safe JSONL file on the trace v5 wire format
(envelope ``run_id`` / ``seq`` / ``ts`` / ``event`` per line, parsed and
torn-tail-tolerated by :func:`repro.obs.read_trace`) that captures one
execution completely enough to re-run it bit-identically::

    {"event": "trace_start",   "schema_version": 5, ...}
    {"event": "session_start", "session_version": 1, "kind": "run",
     "params": {...everything needed to rebuild the execution...}}
    {"event": "step", "step": 0, "t": 1, "broadcasts": [...],
     "digests": ["sha256...", ...], "faults": [...], "deliveries": [...],
     "rng": {"faults": "sha256...", "net": null}, "all_finished": false}
    ...
    {"event": "result",      "payload": {...normalized outcome...}}
    {"event": "session_end", "steps": 7, "complete": true,
     "interrupted": false}

For simulator runs a step is one synchronous round: the on-channel
broadcast vector, a per-vertex SHA-256 digest of that round's transcript
record (``RoundRecord.comparable()`` -- two executions agree on every
per-round digest prefix iff every vertex's ``state_view`` prefix agrees),
the fault and delivery events injected that round, and the post-round
RNG state digests of the fault and channel layers. For the batch engines
(exhaustive / sampling / ranks / fault-sweep) a step is one unit of the
computation (a report, a curve point).

Crash safety is the trace contract -- the store is a
:class:`~repro.obs.trace.JsonlWriter`, so every line write goes through
:func:`repro.resilience.retry_transient` (bounded retries on transient
``OSError``/EINTR) with the partially written tail rolled back (seek +
truncate) before each retry, and a retried line can never corrupt the
middle of the file -- plus one session-specific piece: an open store
registers with :func:`repro.resilience.register_flush_hook`, so
``graceful_interrupts`` seals the log with an ``interrupted``
``session_end`` on SIGINT/SIGTERM -- a killed run replays cleanly up to
its last complete step.

Parallel recording: workers cannot share one append stream, so sharded
engines write *segment files* (``<path>.shard-<k>``) in completion order
and :meth:`SessionStore.merge_shard_steps` folds them into the main log
in shard-index order -- the same discipline as the shard folds of
:func:`repro.parallel.shard.map_units`' callers, so the recorded session
is independent of worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from repro.errors import SessionError
from repro.obs.trace import JsonlWriter, _jsonable, read_trace, validate_trace_events
from repro.resilience.interrupt import register_flush_hook, unregister_flush_hook
from repro.resilience.retry import retry_transient

__all__ = [
    "SESSION_SCHEMA_VERSION",
    "RecordedSession",
    "SessionStore",
    "read_session",
    "round_digest",
    "validate_session_events",
]

#: Bump when the session-log surface changes incompatibly.
SESSION_SCHEMA_VERSION = 1

#: Envelope fields stamped by the writer; stripped before comparisons.
ENVELOPE_FIELDS = ("run_id", "seq", "ts")


def round_digest(record) -> str:
    """SHA-256 of one vertex's :class:`RoundRecord` in canonical JSON.

    Digesting ``RoundRecord.comparable()`` -- ``(sent, sorted received
    port/message pairs)`` -- makes per-step comparison exactly the
    paper's ``state_view`` comparison: two executions whose digests
    agree on a prefix are indistinguishable to every vertex over it.
    """
    comparable = record.comparable()
    blob = json.dumps(comparable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SessionStore(JsonlWriter):
    """Writes one execution's session log; the simulator's ``session`` hook.

    Parameters mirror :class:`repro.obs.RunTrace`: ``sink`` is a path
    (opened line-buffered for append) or an open text stream (ownership
    stays with the caller), ``fsync`` forces every line to disk. The
    store is thread-safe and idempotently closeable; it seals itself
    with an ``interrupted`` session_end if the process is interrupted
    inside :func:`repro.resilience.graceful_interrupts`.
    """

    closed_error = SessionError

    def __init__(
        self,
        sink: Union[str, TextIO],
        run_id: Optional[str] = None,
        fsync: bool = False,
    ):
        self._steps = 0
        self._started = False
        self._finished = False
        self._shard_buffers: Dict[int, List[Dict[str, Any]]] = {}
        super().__init__(sink, run_id=run_id, fsync=fsync)
        self._flush_handle = register_flush_hook(self.interrupt)

    def _emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line (retried on transient I/O errors)."""
        return self._write(event, fields, default=_jsonable)

    # -- lifecycle -------------------------------------------------------
    def start(self, kind: str, params: Mapping[str, Any]) -> None:
        """Write the session header; must precede any step."""
        with self._lock:
            if self._started:
                raise SessionError("session already started")
            self._started = True
            self._emit(
                "session_start",
                kind=kind,
                session_version=SESSION_SCHEMA_VERSION,
                params=dict(params),
            )

    def record_round(self, record) -> None:
        """One simulator round -> one step event (the Simulator hook).

        ``record`` is the round's :class:`repro.core.observers.RoundEnd`.
        """
        with self._lock:
            self._emit(
                "step",
                step=self._steps,
                t=record.t,
                broadcasts=list(record.messages),
                digests=[round_digest(tr.record(record.t)) for tr in record.transcripts],
                all_finished=record.all_finished,
                faults=[event.as_dict() for event in record.fault_events],
                deliveries=[event.as_dict() for event in record.net_events],
                rng={"faults": record.fault_rng, "net": record.net_rng},
            )
            self._steps += 1

    def write_step(self, name: str, data: Mapping[str, Any]) -> None:
        """One generic engine step (a report, a sweep cell, a rank row)."""
        with self._lock:
            self._emit("step", step=self._steps, name=name, data=dict(data))
            self._steps += 1

    def write_result(self, payload: Mapping[str, Any]) -> None:
        """The execution's normalized outcome (volatile fields zeroed)."""
        self._emit("result", payload=dict(payload))

    def finish(self, complete: bool = True) -> None:
        """Seal the log with a ``session_end`` and close the store."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._emit(
                "session_end",
                steps=self._steps,
                complete=complete,
                interrupted=False,
            )
            self.close()

    def interrupt(self) -> None:
        """Seal the log as interrupted (idempotent; the SIGINT/SIGTERM hook)."""
        with self._lock:
            if self._finished or self._closed:
                return
            self._finished = True
            try:
                self._emit(
                    "session_end",
                    steps=self._steps,
                    complete=False,
                    interrupted=True,
                )
            finally:
                self.close()

    def close(self) -> None:
        """Idempotent close; only closes streams this store opened."""
        with self._lock:
            if not self._closed:
                unregister_flush_hook(self._flush_handle)
            super().close()

    @property
    def steps_recorded(self) -> int:
        return self._steps

    # -- shard segments ---------------------------------------------------
    def shard_segment_path(self, shard: int) -> Optional[str]:
        """Where shard ``shard`` appends its steps (None for stream sinks)."""
        if self._path is None:
            return None
        return f"{self._path}.shard-{shard}"

    def write_shard_step(self, shard: int, name: str, data: Mapping[str, Any]) -> None:
        """Append one step to shard ``shard``'s segment, in completion order.

        Segments are plain JSONL (one ``{"name", "data"}`` object per
        line) with no envelope: step numbering is assigned only at merge
        time, in shard-index order, so the final log is independent of
        which worker finished first. Stream-sink stores buffer segments
        in memory instead (tests, in-process recording).
        """
        path = self.shard_segment_path(shard)
        entry = {"name": name, "data": dict(data)}
        if path is None:
            with self._lock:
                self._shard_buffers.setdefault(shard, []).append(entry)
            return
        line = json.dumps(entry, sort_keys=False, default=_jsonable) + "\n"

        def attempt() -> None:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()

        retry_transient(attempt)

    def merge_shard_steps(self, shards: int) -> int:
        """Fold segments 0..shards-1 into the main log; returns steps merged.

        Shard-index order makes the merge independent of completion
        order; consumed segment files
        are deleted so a sealed session is a single self-contained log.
        """
        merged = 0
        for shard in range(shards):
            path = self.shard_segment_path(shard)
            if path is None:
                entries = self._shard_buffers.pop(shard, [])
            else:
                entries = []
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        for line in handle:
                            line = line.strip()
                            if line:
                                entries.append(json.loads(line))
                except FileNotFoundError:
                    entries = []
            for entry in entries:
                self.write_step(entry["name"], entry["data"])
                merged += 1
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return merged


# ----------------------------------------------------------------------
# reading and validation
# ----------------------------------------------------------------------
@dataclass
class RecordedSession:
    """A parsed session log, step-addressable and replayable."""

    run_id: str
    kind: str
    params: Dict[str, Any]
    session_version: int
    steps: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    complete: bool = False
    interrupted: bool = False

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def step(self, index: int) -> Dict[str, Any]:
        """Step ``index`` (0-based) with the envelope stripped."""
        if not 0 <= index < len(self.steps):
            raise SessionError(
                f"step {index} not in session of {len(self.steps)} steps"
            )
        return self.steps[index]


def validate_session_events(events: List[Dict[str, Any]]) -> List[str]:
    """Schema violations for a parsed session log (empty = valid).

    Layered on :func:`repro.obs.validate_trace_events` (envelope and
    per-event field shapes), then the session-structure contract:
    exactly one ``session_start`` right after the header, step indices
    contiguous from 0, at most one ``result`` (after all steps), and a
    final ``session_end`` whose ``steps`` matches the count -- absent
    only in truncated (crashed/interrupted-before-seal) logs, which are
    valid *partial* sessions.
    """
    problems = list(validate_trace_events(events))
    if not events:
        return problems
    starts = [e for e in events if e.get("event") == "session_start"]
    if not starts:
        problems.append("session log has no session_start event")
        return problems
    if len(starts) > 1:
        problems.append(f"session log has {len(starts)} session_start events")
    start = starts[0]
    version = start.get("session_version")
    if isinstance(version, int) and version > SESSION_SCHEMA_VERSION:
        problems.append(
            f"session_version {version} is newer than supported "
            f"{SESSION_SCHEMA_VERSION}"
        )
    if events[0].get("event") == "trace_start" and events[1] is not start:
        problems.append("session_start is not the first event after trace_start")
    expected_step = 0
    seen_result = False
    seen_end = False
    for index, event in enumerate(events):
        name = event.get("event")
        if seen_end and name in ("step", "result", "session_end"):
            problems.append(f"event {index} appears after session_end")
        if name == "step":
            if seen_result:
                problems.append(f"step event {index} appears after result")
            if event.get("step") != expected_step:
                problems.append(
                    f"step event {index} has step={event.get('step')!r}, "
                    f"expected {expected_step} (steps must be contiguous from 0)"
                )
            expected_step += 1
        elif name == "result":
            if seen_result:
                problems.append(f"session log has a second result at event {index}")
            seen_result = True
        elif name == "session_end":
            seen_end = True
            steps = event.get("steps")
            if isinstance(steps, int) and steps != expected_step:
                problems.append(
                    f"session_end declares {steps} steps but {expected_step} "
                    f"were recorded"
                )
    return problems


def read_session(source: Union[str, TextIO]) -> RecordedSession:
    """Parse (and validate) a session log into a :class:`RecordedSession`.

    Tolerates a torn final line and a missing seal -- a truncated log
    (hard kill mid-record) comes back as a valid partial session with
    ``complete=False`` -- but raises :class:`~repro.errors.SessionError`
    on any structural violation earlier in the file.
    """
    try:
        events = read_trace(source)
    except (OSError, ValueError) as exc:
        raise SessionError(f"cannot read session log: {exc}") from exc
    problems = validate_session_events(events)
    if problems:
        summary = "; ".join(problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise SessionError(f"invalid session log: {summary}{more}")
    start = next(e for e in events if e.get("event") == "session_start")
    steps = [
        _strip_envelope(e) for e in events if e.get("event") == "step"
    ]
    result = None
    complete = False
    interrupted = False
    for event in events:
        if event.get("event") == "result":
            result = event.get("payload")
        elif event.get("event") == "session_end":
            complete = bool(event.get("complete"))
            interrupted = bool(event.get("interrupted"))
    return RecordedSession(
        run_id=str(start.get("run_id")),
        kind=str(start.get("kind")),
        params=dict(start.get("params", {})),
        session_version=int(start.get("session_version", 0)),
        steps=steps,
        result=result,
        complete=complete,
        interrupted=interrupted,
    )


def _strip_envelope(event: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in event.items() if k not in ENVELOPE_FIELDS}
