"""Replay verification: re-execute a recorded session and diff per step.

The verifier is the payoff of the whole record/replay layer: because
every engine is deterministic given its ``params`` header (seeded fault
RNG, seeded network RNG, seeded public coin, seeded sampling RNG), a
replayed session must be byte-identical to the recorded one -- not
"close", identical. :func:`replay_session` re-executes the header into
an in-memory session log and compares the two logs step by step
(post-JSON, envelope stripped, so representation quirks cannot create
false divergences), then compares the result payloads.

A mismatch means one of exactly three things: the log was tampered with
or corrupted mid-file, the code changed behavior since recording, or a
determinism bug crept in. All three are things the user wants to hear
about loudly, so the CLI maps a :class:`Divergence` to exit code 4.

Truncated sessions (hard kill or SIGINT mid-record) are *partial*, not
divergent: the recorded prefix is compared against the replay's prefix
and the absent tail and result are simply not compared.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TextIO, Union

from repro.replay.store import RecordedSession, read_session

__all__ = [
    "Divergence",
    "ReplayReport",
    "compare_sessions",
    "diff_steps",
    "replay_session",
]


@dataclass(frozen=True)
class Divergence:
    """The first point where the replay disagrees with the recording."""

    location: str  #: "step 3", "result", or "step count"
    field: Optional[str]  #: first differing key inside the step/result
    recorded: Any
    replayed: Any

    def describe(self) -> str:
        where = self.location if self.field is None else f"{self.location}.{self.field}"
        return (
            f"first divergence at {where}: "
            f"recorded={self.recorded!r} replayed={self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """Outcome of one record-vs-replay comparison."""

    run_id: str
    kind: str
    steps_recorded: int
    steps_replayed: int
    steps_compared: int
    result_compared: bool
    partial: bool  #: the recording was truncated (no complete seal)
    divergence: Optional[Divergence] = None
    replayed: Optional[RecordedSession] = field(default=None, repr=False)

    @property
    def matched(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        status = "MATCH" if self.matched else "DIVERGED"
        lines = [
            f"replay {status}: session {self.run_id} (kind={self.kind})",
            f"  steps: {self.steps_compared} compared"
            f" ({self.steps_recorded} recorded, {self.steps_replayed} replayed)"
            + (" [partial recording]" if self.partial else ""),
            f"  result: {'compared' if self.result_compared else 'not compared'}",
        ]
        if self.divergence is not None:
            lines.append("  " + self.divergence.describe())
        return "\n".join(lines)


def _first_differing_field(recorded: Any, replayed: Any) -> Optional[str]:
    if isinstance(recorded, dict) and isinstance(replayed, dict):
        for key in sorted(set(recorded) | set(replayed)):
            if recorded.get(key) != replayed.get(key):
                return key
    return None


def diff_steps(
    recorded: Dict[str, Any], replayed: Dict[str, Any], location: str
) -> Optional[Divergence]:
    """First divergence between two stripped step dicts, or None."""
    if recorded == replayed:
        return None
    key = _first_differing_field(recorded, replayed)
    if key is None:
        return Divergence(location, None, recorded, replayed)
    return Divergence(location, key, recorded.get(key), replayed.get(key))


def compare_sessions(
    recorded: RecordedSession, replayed: RecordedSession
) -> ReplayReport:
    """Diff two parsed sessions; recorded may be a truncated prefix."""
    compared = min(recorded.step_count, replayed.step_count)
    divergence: Optional[Divergence] = None
    for index in range(compared):
        divergence = diff_steps(
            recorded.step(index), replayed.step(index), f"step {index}"
        )
        if divergence is not None:
            break
    result_compared = False
    if divergence is None and recorded.complete:
        # A sealed recording pins the full shape: the replay must have
        # exactly as many steps and an equal result payload.
        if replayed.step_count != recorded.step_count:
            divergence = Divergence(
                "step count", None, recorded.step_count, replayed.step_count
            )
        elif recorded.result != replayed.result:
            result_compared = True
            key = _first_differing_field(recorded.result, replayed.result)
            divergence = Divergence(
                "result",
                key,
                recorded.result if key is None else (recorded.result or {}).get(key),
                replayed.result if key is None else (replayed.result or {}).get(key),
            )
        else:
            result_compared = True
    return ReplayReport(
        run_id=recorded.run_id,
        kind=recorded.kind,
        steps_recorded=recorded.step_count,
        steps_replayed=replayed.step_count,
        steps_compared=compared,
        result_compared=result_compared,
        partial=not recorded.complete,
        divergence=divergence,
        replayed=replayed,
    )


def replay_session(source: Union[str, TextIO, RecordedSession]) -> ReplayReport:
    """Re-execute a recorded session and report the first divergence.

    ``source`` is a session-log path, an open text stream, or an
    already-parsed :class:`RecordedSession`. The replay runs the same
    engine from the same ``params`` header into an in-memory log (the
    original file is never written), and both sides are compared after
    the same JSON round-trip.
    """
    from repro.replay.engines import record_session

    recorded = (
        source if isinstance(source, RecordedSession) else read_session(source)
    )
    buffer = io.StringIO()
    record_session(recorded.kind, recorded.params, buffer, run_id=recorded.run_id)
    replayed = read_session(io.StringIO(buffer.getvalue()))
    return compare_sessions(recorded, replayed)
