"""Structured JSONL run traces.

:mod:`repro.core.tracing` renders executions for humans; this module is
the machine-readable counterpart. A :class:`RunTrace` writes one JSON
object per line -- a ``trace_start`` header carrying the schema version
and run id, then arbitrary events (per-round simulator events, protocol
turns, benchmark milestones), each stamped with a monotonically
increasing sequence number and a wall-clock timestamp.

Line format (schema version 5)::

    {"run_id": "a1b2...", "seq": 0, "ts": 1754464000.123,
     "event": "trace_start", "schema_version": 5}
    {"run_id": "a1b2...", "seq": 1, "ts": ..., "event": "run_start",
     "n": 12, "kt": 0, "bandwidth": 1, "rounds_budget": 4}
    {"run_id": "a1b2...", "seq": 2, "ts": ..., "event": "fault",
     "t": 1, "kind": "bit_flip", "vertex": 3, "receiver": 7,
     "original": "0", "delivered": "1", "scheduled": false}
    {"run_id": "a1b2...", "seq": 3, "ts": ..., "event": "round",
     "t": 1, "bits": 12, "wall_seconds": 3.1e-05}
    ...

Schema history (:func:`validate_trace_events` accepts v4 and v5 and
flags a header declaring v1--v3; no committed trace uses them):

* **v1** -- ``trace_start`` / ``run_start`` / ``round`` / ``run_end``
  plus the protocol events (``protocol_start`` / ``turn`` /
  ``protocol_end``) and free-form events.
* **v2** -- adds the fault-injection surface: ``fault`` events (one per
  injected fault, fields ``t``/``kind``/``vertex``/``receiver``/
  ``original``/``delivered``/``scheduled``), an optional ``faults``
  count on ``round`` events, fault metadata (``fault_seed``,
  ``fault_rates``) on ``run_start``, and ``faults_injected`` /
  ``crashed_vertices`` / ``failed_vertices`` on ``run_end``.
* **v3** -- adds the hierarchical span-profiling surface (see
  :mod:`repro.obs.spans`): ``span_start`` events (``span_id``,
  ``parent_id`` -- null for roots -- ``name``, ``attrs``) and
  ``span_end`` events (``span_id``, ``name``, ``duration_seconds``,
  ``self_seconds``), emitted by a
  :class:`~repro.obs.spans.SpanRecorder` constructed with a trace, so
  profiles interleave with round/fault events on one timeline.
* **v4** -- adds the communication-cost surface (see
  :mod:`repro.costs`): one ``cost_summary`` event per run with an
  active :class:`~repro.costs.CostLedger` (fields ``total_bits``,
  ``rounds``, and ``per_vertex`` -- a list of
  ``{"vertex", "bits", "silent_rounds"}`` records), emitted just
  before ``run_end`` so the per-run ledger rides the same timeline
  as the rounds it accounts for.
* **v5** -- adds the channel/session surface. ``delivery`` events
  (one per delivery anomaly injected by a non-pristine
  :class:`repro.net.NetworkPlan`: fields ``t`` / ``kind`` in
  ``{"delayed", "duplicated", "reordered", "dropped"}`` / ``sender``
  / ``receiver`` / ``sent_round`` / ``arrival_round`` / ``message``),
  optional ``network`` metadata on ``run_start`` and
  ``delivery_anomalies`` on ``run_end``, and the session-log events
  written by :class:`repro.replay.SessionStore` on the same wire
  format: ``session_start`` (``kind``, ``session_version``,
  ``params``), one ``step`` per recorded step (integer ``step``),
  ``result`` (object ``payload``), and ``session_end`` (integer
  ``steps``, boolean ``complete``). v5 is a strict superset of v4,
  and delivery/session events inside traces declaring v4 are flagged.

Crash safety: every event is written as one line and flushed
immediately (file sinks are opened line-buffered, and ``fsync=True``
additionally forces each line to disk), so traces are valid JSONL at
every *line* boundary. A transient ``OSError`` while writing a line is
retried after rolling the stream back to the line boundary
(:class:`JsonlWriter`, shared with the session store). A hard kill can
still tear the final line mid-write; :func:`read_trace` therefore skips
a torn trailing line by default, while refusing corruption anywhere
earlier in the file.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "JsonlWriter",
    "RunTrace",
    "read_trace",
    "trace_stats",
    "validate_trace_events",
]

#: Bump when the line format changes incompatibly.
TRACE_SCHEMA_VERSION = 5

#: Oldest schema version validate_trace_events still accepts. v1-v3
#: traces were never committed as artifacts; their headers are rejected.
OLDEST_SUPPORTED_TRACE_SCHEMA = 4


class JsonlWriter:
    """An append-only JSONL event stream bound to one run id.

    The shared core of :class:`RunTrace` and
    :class:`repro.replay.SessionStore`. ``sink`` is a path (opened for
    line-buffered append) or an already-open text stream (ownership stays
    with the caller: ``close()`` only closes sinks this writer opened).
    Each line carries the ``run_id`` / ``seq`` / ``ts`` / ``event``
    envelope and is flushed; ``fsync=True`` also forces it to disk, so it
    survives a machine crash, not just a process kill. The first line is
    the ``trace_start`` header. Thread-safe.

    A transient ``OSError`` on a line write is retried by
    :func:`repro.resilience.retry_transient`; each failed attempt first
    rolls the stream back to the line boundary (seek + truncate, when the
    sink supports it), so a retry only ever re-writes the final line.
    """

    #: Raised by :meth:`_write` once the writer is closed.
    closed_error: type = ValueError

    def __init__(
        self,
        sink: Union[str, TextIO],
        run_id: Optional[str] = None,
        fsync: bool = False,
    ):
        if run_id is None:
            # uuid (and the platform module it loads) only once a trace
            # is written: every simulator command imports this module.
            import uuid

            run_id = uuid.uuid4().hex
        self.run_id = run_id
        self._lock = threading.RLock()
        self._seq = 0
        self._path: Optional[str] = None
        if isinstance(sink, (str, bytes)):
            # Line-buffered append: the OS sees every event as soon as the
            # line is complete, independent of the flush below.
            self._path = os.fspath(sink)
            self._stream: TextIO = open(sink, "a", encoding="utf-8", buffering=1)
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._fsync = fsync
        self._closed = False
        # Deferred: importing the resilience package loads the simulator.
        from repro.resilience.retry import retry_transient

        self._retry = retry_transient
        self._write("trace_start", {"schema_version": TRACE_SCHEMA_VERSION})

    def _write(self, event: str, fields: Dict[str, Any], default=None) -> Dict[str, Any]:
        """Append one event line; returns the record that was written.

        ``default`` is handed to ``json.dumps`` for values it cannot
        encode.
        """
        with self._lock:
            if self._closed:
                raise self.closed_error(f"{type(self).__name__} is closed")
            record: Dict[str, Any] = {
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": time.time(),
                "event": event,
            }
            record.update(fields)
            line = json.dumps(record, sort_keys=False, default=default) + "\n"
            self._retry(lambda: self._append(line))
            self._seq += 1
            return record

    def _append(self, line: str) -> None:
        stream = self._stream
        try:
            position = stream.tell()
        except (OSError, io.UnsupportedOperation, ValueError):
            position = None
        try:
            stream.write(line)
            stream.flush()
            if self._fsync:
                try:
                    fileno = stream.fileno()
                except (AttributeError, io.UnsupportedOperation):
                    fileno = None  # in-memory sinks have no descriptor
                if fileno is not None:
                    os.fsync(fileno)
        except OSError:
            if position is not None:
                try:
                    stream.seek(position)
                    stream.truncate()
                except OSError:
                    pass
            raise

    @property
    def events_written(self) -> int:
        return self._seq

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Idempotent close; only closes streams this writer opened."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._stream.flush()
            except (OSError, ValueError):  # caller already closed their stream
                pass
            if self._owns_stream:
                self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RunTrace(JsonlWriter):
    """The structured run trace: any event, values coerced to JSON."""

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event line; returns the record that was written."""
        return self._write(event, {key: _jsonable(value) for key, value in fields.items()})


def _jsonable(value: Any) -> Any:
    """Coerce a value to something json.dumps accepts (repr fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def read_trace(
    source: Union[str, TextIO],
    skip_torn_tail: bool = True,
    schema_version: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into a list of event dicts.

    Traces are flushed line-by-line, so a process killed mid-``emit`` can
    leave exactly one torn line -- the last one. With ``skip_torn_tail``
    (the default) that trailing fragment is silently dropped; malformed
    JSON anywhere *before* the final line still raises ``ValueError``,
    because mid-file corruption means something worse than a kill
    happened and silently continuing would hide it.

    ``schema_version`` filters a mixed file (several writers appending
    to one path over time) down to the runs whose ``trace_start``
    header declares exactly that version; events belonging to a run
    with no header in the file are dropped when the filter is active,
    since their version cannot be established.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    elif isinstance(source, io.StringIO):
        text = source.getvalue()
    else:
        text = source.read()
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    events = []
    for index, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if skip_torn_tail and index == len(lines) - 1:
                break  # torn tail from a hard kill: drop it
            raise ValueError(
                f"trace line {index + 1} is not valid JSON ({exc}); only a "
                f"torn final line is tolerated"
            ) from exc
    if schema_version is not None:
        versions: Dict[str, Any] = {}
        for event in events:
            if event.get("event") == "trace_start" and isinstance(
                event.get("run_id"), str
            ):
                versions.setdefault(event["run_id"], event.get("schema_version"))
        keep = {rid for rid, v in versions.items() if v == schema_version}
        events = [e for e in events if e.get("run_id") in keep]
    return events


#: Fault kinds trace v2 fault events may carry (mirrors
#: repro.resilience.faults.FAULT_KINDS; duplicated as literals so obs
#: stays import-independent of the resilience package).
_TRACE_FAULT_KINDS = ("bit_flip", "erasure", "crash")

_FAULT_EVENT_FIELDS = {
    "t": int,
    "kind": str,
    "vertex": int,
    "original": str,
    "delivered": str,
}

_SPAN_START_FIELDS = {
    "span_id": int,
    "name": str,
}

_SPAN_END_FIELDS = {
    "span_id": int,
    "name": str,
}

_COST_SUMMARY_FIELDS = {
    "total_bits": int,
    "rounds": int,
}

#: Delivery anomaly kinds trace v5 delivery events may carry (mirrors
#: repro.net.DELIVERY_KINDS; duplicated as literals so obs stays
#: import-independent of the net package).
_TRACE_DELIVERY_KINDS = ("delayed", "duplicated", "reordered", "dropped")

_DELIVERY_EVENT_FIELDS = {
    "t": int,
    "kind": str,
    "sender": int,
    "receiver": int,
    "sent_round": int,
    "arrival_round": int,
    "message": str,
}

_SESSION_START_FIELDS = {
    "kind": str,
    "session_version": int,
}


def validate_trace_events(events: List[Dict[str, Any]]) -> List[str]:
    """Return a list of schema violations for a parsed trace (empty = valid).

    Accepts schema versions :data:`OLDEST_SUPPORTED_TRACE_SCHEMA` (4)
    through :data:`TRACE_SCHEMA_VERSION`; a ``trace_start`` header
    declaring any other version is flagged. The envelope (run_id / seq /
    ts / event) is checked on every line; ``fault``, ``span_start`` /
    ``span_end`` and ``cost_summary`` events (integer ``total_bits`` /
    ``rounds``, a well-formed ``per_vertex`` list) are checked
    field-by-field; and v5 ``delivery`` and session events
    (``session_start`` / ``step`` / ``result`` / ``session_end``) are
    checked and flagged inside traces declaring version 4 (which
    predates the channel layer and session store).
    """
    problems: List[str] = []
    if not events:
        return ["trace has no events"]
    if events[0].get("event") != "trace_start":
        problems.append("first event is not trace_start")
    # Every appended run declares its own schema version in its own
    # trace_start header, so a mixed v4/v5 file is judged run by run
    # rather than by whichever writer happened to come first.
    versions_by_run: Dict[str, int] = {}
    for index, event in enumerate(events):
        if event.get("event") != "trace_start":
            continue
        declared = event.get("schema_version")
        if not isinstance(declared, int) or isinstance(declared, bool):
            problems.append(
                f"trace_start event {index} missing integer schema_version"
            )
            continue
        if declared > TRACE_SCHEMA_VERSION:
            problems.append(
                f"schema_version {declared} is newer than supported "
                f"{TRACE_SCHEMA_VERSION}"
            )
        elif declared < OLDEST_SUPPORTED_TRACE_SCHEMA:
            problems.append(
                f"schema_version must be >= {OLDEST_SUPPORTED_TRACE_SCHEMA}"
            )
        run_id = event.get("run_id")
        if isinstance(run_id, str):
            versions_by_run.setdefault(run_id, declared)
    for index, event in enumerate(events):
        version = versions_by_run.get(event.get("run_id"), TRACE_SCHEMA_VERSION)
        for field in ("run_id", "seq", "ts", "event"):
            if field not in event:
                problems.append(f"event {index} missing field {field!r}")
        if event.get("event") == "fault":
            for field, expected in _FAULT_EVENT_FIELDS.items():
                value = event.get(field)
                if isinstance(value, bool) or not isinstance(value, expected):
                    problems.append(
                        f"fault event {index} field {field!r} is not "
                        f"{expected.__name__}"
                    )
            kind = event.get("kind")
            if isinstance(kind, str) and kind not in _TRACE_FAULT_KINDS:
                problems.append(
                    f"fault event {index} has unknown kind {kind!r}"
                )
        elif event.get("event") in ("span_start", "span_end"):
            which = event["event"]
            fields = _SPAN_START_FIELDS if which == "span_start" else _SPAN_END_FIELDS
            for field, expected in fields.items():
                value = event.get(field)
                if isinstance(value, bool) or not isinstance(value, expected):
                    problems.append(
                        f"{which} event {index} field {field!r} is not "
                        f"{expected.__name__}"
                    )
            if which == "span_start":
                parent = event.get("parent_id")
                if parent is not None and (
                    isinstance(parent, bool) or not isinstance(parent, int)
                ):
                    problems.append(
                        f"span_start event {index} parent_id is neither null "
                        f"nor int"
                    )
            else:
                for field in ("duration_seconds", "self_seconds"):
                    value = event.get(field)
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        problems.append(
                            f"span_end event {index} field {field!r} is not "
                            f"numeric"
                        )
        elif event.get("event") == "cost_summary":
            for field, expected in _COST_SUMMARY_FIELDS.items():
                value = event.get(field)
                if isinstance(value, bool) or not isinstance(value, expected):
                    problems.append(
                        f"cost_summary event {index} field {field!r} is not "
                        f"{expected.__name__}"
                    )
            per_vertex = event.get("per_vertex")
            if not isinstance(per_vertex, list):
                problems.append(
                    f"cost_summary event {index} per_vertex is not a list"
                )
            else:
                for slot, entry in enumerate(per_vertex):
                    if not isinstance(entry, dict):
                        problems.append(
                            f"cost_summary event {index} per_vertex[{slot}] "
                            f"is not an object"
                        )
                        continue
                    if not isinstance(entry.get("vertex"), str):
                        problems.append(
                            f"cost_summary event {index} per_vertex[{slot}] "
                            f"vertex is not str"
                        )
                    for field in ("bits", "silent_rounds"):
                        value = entry.get(field)
                        if isinstance(value, bool) or not isinstance(value, int):
                            problems.append(
                                f"cost_summary event {index} per_vertex"
                                f"[{slot}] field {field!r} is not int"
                            )
        elif event.get("event") == "delivery":
            if version < 5:
                problems.append(
                    f"event {index} is a delivery event but the trace declares "
                    f"schema version {version} (deliveries need version >= 5)"
                )
            for field, expected in _DELIVERY_EVENT_FIELDS.items():
                value = event.get(field)
                if isinstance(value, bool) or not isinstance(value, expected):
                    problems.append(
                        f"delivery event {index} field {field!r} is not "
                        f"{expected.__name__}"
                    )
            kind = event.get("kind")
            if isinstance(kind, str) and kind not in _TRACE_DELIVERY_KINDS:
                problems.append(
                    f"delivery event {index} has unknown kind {kind!r}"
                )
        elif event.get("event") in ("session_start", "step", "result", "session_end"):
            which = event["event"]
            if version < 5:
                problems.append(
                    f"event {index} is a {which} event but the trace declares "
                    f"schema version {version} (sessions need version >= 5)"
                )
            if which == "session_start":
                for field, expected in _SESSION_START_FIELDS.items():
                    value = event.get(field)
                    if isinstance(value, bool) or not isinstance(value, expected):
                        problems.append(
                            f"session_start event {index} field {field!r} is "
                            f"not {expected.__name__}"
                        )
                if not isinstance(event.get("params"), dict):
                    problems.append(
                        f"session_start event {index} params is not an object"
                    )
            elif which == "step":
                value = event.get("step")
                if isinstance(value, bool) or not isinstance(value, int):
                    problems.append(f"step event {index} field 'step' is not int")
            elif which == "result":
                if not isinstance(event.get("payload"), dict):
                    problems.append(
                        f"result event {index} payload is not an object"
                    )
            else:  # session_end
                value = event.get("steps")
                if isinstance(value, bool) or not isinstance(value, int):
                    problems.append(
                        f"session_end event {index} field 'steps' is not int"
                    )
                if not isinstance(event.get("complete"), bool):
                    problems.append(
                        f"session_end event {index} field 'complete' is not bool"
                    )
    by_run: Dict[str, List[int]] = {}
    for event in events:
        if isinstance(event.get("seq"), int) and isinstance(event.get("run_id"), str):
            by_run.setdefault(event["run_id"], []).append(event["seq"])
    for run_id, seqs in by_run.items():
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            problems.append(f"seq numbers not strictly increasing for run {run_id}")
    return problems


def trace_stats(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-run summary of a parsed trace: event-type counts and version.

    Returns ``{run_id: {"schema_version": v_or_None, "events": total,
    "by_event": {event_name: count}}}`` in first-seen run order --
    the data behind ``repro trace-validate --stats``. Events without a
    string ``run_id`` are collected under the pseudo run id ``"?"``.

    Runs carrying v4 ``cost_summary`` events additionally get a
    ``"cost_bits"`` key (the summed ``total_bits`` across those events);
    runs carrying v5 session envelopes get a ``"sessions"`` key
    summarizing them (``{"kinds": {kind: count}, "steps": total,
    "complete": all_session_ends_complete}``); runs carrying ``cache``
    events (emitted by :func:`repro.engine.execute` when a result cache
    is attached) get a ``"cache"`` key counting hits and misses
    (``{"hits": h, "misses": m}``). All are *sibling* keys of
    ``by_event`` -- the by-event counts themselves are stable across
    schema versions.
    """
    stats: Dict[str, Dict[str, Any]] = {}
    for event in events:
        run_id = event.get("run_id")
        key = run_id if isinstance(run_id, str) else "?"
        entry = stats.setdefault(
            key, {"schema_version": None, "events": 0, "by_event": {}}
        )
        entry["events"] += 1
        name = event.get("event")
        name = name if isinstance(name, str) else "?"
        entry["by_event"][name] = entry["by_event"].get(name, 0) + 1
        if name == "trace_start" and entry["schema_version"] is None:
            entry["schema_version"] = event.get("schema_version")
        elif name == "cost_summary":
            total_bits = event.get("total_bits")
            if isinstance(total_bits, int):
                entry["cost_bits"] = entry.get("cost_bits", 0) + total_bits
        elif name == "session_start":
            sessions = entry.setdefault(
                "sessions", {"kinds": {}, "steps": 0, "complete": True}
            )
            kind = event.get("kind")
            kind = kind if isinstance(kind, str) else "?"
            sessions["kinds"][kind] = sessions["kinds"].get(kind, 0) + 1
        elif name == "session_end":
            sessions = entry.setdefault(
                "sessions", {"kinds": {}, "steps": 0, "complete": True}
            )
            steps = event.get("steps")
            if isinstance(steps, int):
                sessions["steps"] += steps
            if event.get("complete") is False:
                sessions["complete"] = False
        elif name == "cache":
            cache = entry.setdefault("cache", {"hits": 0, "misses": 0})
            status = event.get("status")
            if status == "hit":
                cache["hits"] += 1
            elif status == "miss":
                cache["misses"] += 1
    return stats
