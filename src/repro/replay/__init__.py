"""repro.replay: record, replay, rewind, and verify deterministic sessions.

The session layer turns any of the repo's deterministic engines into a
recorded artifact: a crash-safe JSONL log (trace-v5 wire format) of
parameters, steps, and result that can be byte-identically re-executed
(:func:`replay_session`), navigated step by step
(:class:`SessionCursor`), or branched into counterfactuals that provably
share the recorded past. See ``docs/SESSIONS.md`` for the file format.
"""

from repro.replay.engines import (
    execute_record,
    execute_run,
    record_session,
)
from repro.replay.session import SessionCursor
from repro.replay.store import (
    ENVELOPE_FIELDS,
    SESSION_SCHEMA_VERSION,
    RecordedSession,
    SessionStore,
    read_session,
    round_digest,
    validate_session_events,
)
from repro.replay.verify import (
    Divergence,
    ReplayReport,
    compare_sessions,
    replay_session,
)

__all__ = [
    "Divergence",
    "ENVELOPE_FIELDS",
    "RecordedSession",
    "ReplayReport",
    "SESSION_SCHEMA_VERSION",
    "SessionCursor",
    "SessionStore",
    "compare_sessions",
    "execute_record",
    "execute_run",
    "read_session",
    "record_session",
    "replay_session",
    "round_digest",
    "validate_session_events",
]
