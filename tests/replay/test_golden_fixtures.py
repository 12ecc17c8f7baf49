"""Checked-in golden fixtures: a run's trace, session and payload bytes.

``test_golden.py`` compares a run against itself, so a change that
reorders or drops events in both runs alike passes it. These fixtures
were written once and are compared byte for byte: for the clean,
faulted and reordered scenarios, the session log, a ``RunTrace`` written
with a ``SpanRecorder(trace=...)`` installed (so ``span_start`` /
``span_end`` interleave with the run events), and the ``run_payload``
JSON. Wall-clock and random fields are masked before comparison.

Regenerate (only for an intended wire-format change) with::

    PYTHONPATH=src python -m tests.replay.test_golden_fixtures
"""

import io
import json
import os
import re

import pytest

from repro.engine import run_payload
from repro.obs import RunTrace, SpanRecorder, use_recorder
from repro.replay import execute_run, record_session

from tests.replay.test_golden import SCENARIOS

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Envelope and timing fields whose values differ between two runs.
MASKED_FIELDS = ("ts", "run_id", "wall_seconds", "duration_seconds", "self_seconds")

_MASK = re.compile(
    r'"(%s)": ("[^"]*"|[-+0-9.eE]+)' % "|".join(MASKED_FIELDS)
)


def mask(text):
    """``text`` with every masked field's value replaced by ``"*"``."""
    return _MASK.sub(lambda match: f'"{match.group(1)}": "*"', text)


def session_text(params):
    buffer = io.StringIO()
    record_session("run", params, buffer, run_id="golden")
    return mask(buffer.getvalue())


def trace_text(params):
    buffer = io.StringIO()
    trace = RunTrace(buffer, run_id="golden")
    with use_recorder(SpanRecorder(trace=trace)):
        execute_run(params, trace=trace)
    return mask(buffer.getvalue())


def payload_text(params):
    return json.dumps(run_payload(execute_run(params)), indent=2) + "\n"


ARTIFACTS = {
    "session.jsonl": session_text,
    "trace.jsonl": trace_text,
    "payload.json": payload_text,
}


def golden_path(name, artifact):
    return os.path.join(GOLDEN_DIR, f"{name}.{artifact}")


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
@pytest.mark.parametrize("name,params", SCENARIOS)
def test_matches_checked_in_fixture(name, params, artifact):
    with open(golden_path(name, artifact), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert ARTIFACTS[artifact](params) == expected


def test_mask_keeps_every_other_byte():
    line = '{"run_id": "abc", "seq": 3, "ts": 1.5e9, "event": "round", "t": 1}\n'
    assert mask(line) == '{"run_id": "*", "seq": 3, "ts": "*", "event": "round", "t": 1}\n'


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, params in SCENARIOS:
        for artifact, render in ARTIFACTS.items():
            with open(golden_path(name, artifact), "w", encoding="utf-8", newline="") as handle:
                handle.write(render(params))


if __name__ == "__main__":
    main()
