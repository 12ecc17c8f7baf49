"""repro.replay: record, replay, rewind, and verify deterministic sessions.

The session layer turns any of the repo's deterministic engines into a
recorded artifact: a crash-safe JSONL log (trace-v5 wire format) of
parameters, steps, and result that can be byte-identically re-executed
(:func:`replay_session`), navigated step by step
(:class:`SessionCursor`), or branched into counterfactuals that provably
share the recorded past. See ``docs/SESSIONS.md`` for the file format.
"""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "execute_record": "repro.replay.engines",
    "execute_run": "repro.replay.engines",
    "record_session": "repro.replay.engines",
    "SessionCursor": "repro.replay.session",
    "ENVELOPE_FIELDS": "repro.replay.store",
    "RecordedSession": "repro.replay.store",
    "SESSION_SCHEMA_VERSION": "repro.replay.store",
    "SessionStore": "repro.replay.store",
    "read_session": "repro.replay.store",
    "round_digest": "repro.replay.store",
    "validate_session_events": "repro.replay.store",
    "Divergence": "repro.replay.verify",
    "ReplayReport": "repro.replay.verify",
    "compare_sessions": "repro.replay.verify",
    "replay_session": "repro.replay.verify",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
