"""Golden byte-identity: record -> replay must reproduce everything.

The acceptance bar for the whole layer: for clean, faulted, and
adversarially-delivered executions, a re-execution from the session
header reproduces the session log byte-for-byte (modulo the wall-clock
``ts`` envelope stamp), the RunResult-derived payload exactly, and the
cost summary exactly -- serially and under ``workers=2``.
"""

import io
import json

import pytest

from repro.costs import cost_summary_from_broadcasts
from repro.replay import execute_run, read_session, record_session, replay_session

CLEAN = {"algorithm": "flooding", "n": 7}
FAULTED = {
    "algorithm": "boruvka",
    "n": 7,
    "instance": "two_cycle",
    "split": 3,
    "faults": {"seed": 5, "bit_flip_rate": 0.08, "crash_rate": 0.02},
}
REORDERED = {
    "algorithm": "neighbor_exchange",
    "n": 6,
    "network": {"seed": 11, "max_delay": 2, "duplicate_rate": 0.2, "reorder": True},
}
SCENARIOS = [("clean", CLEAN), ("faulted", FAULTED), ("reordered", REORDERED)]


def _canonical_lines(text):
    """Session-log lines with the wall-clock stamp dropped."""
    return [
        json.dumps(
            {k: v for k, v in json.loads(line).items() if k != "ts"},
            sort_keys=True,
        )
        for line in text.splitlines()
        if line.strip()
    ]


class TestByteIdenticalRecordings:
    @pytest.mark.parametrize("name,params", SCENARIOS)
    def test_two_recordings_identical(self, name, params):
        first, second = io.StringIO(), io.StringIO()
        payload_a, _ = record_session("run", params, first, run_id="golden")
        payload_b, _ = record_session("run", params, second, run_id="golden")
        assert payload_a == payload_b
        assert _canonical_lines(first.getvalue()) == _canonical_lines(
            second.getvalue()
        )

    @pytest.mark.parametrize("name,params", SCENARIOS)
    def test_replay_matches(self, name, params):
        buffer = io.StringIO()
        record_session("run", params, buffer)
        report = replay_session(io.StringIO(buffer.getvalue()))
        assert report.matched, report.describe()
        assert report.result_compared

    @pytest.mark.parametrize("name,params", SCENARIOS)
    def test_run_results_bit_identical(self, name, params):
        a = execute_run(params)
        b = execute_run(params)
        assert a.outputs == b.outputs
        assert a.broadcast_history == b.broadcast_history
        assert a.fault_events == b.fault_events
        assert a.network_events == b.network_events
        assert a.cost_summary == b.cost_summary
        assert [t.comparable() for t in a.transcripts] == [
            t.comparable() for t in b.transcripts
        ]


class TestCostParity:
    @pytest.mark.parametrize("name,params", SCENARIOS)
    def test_recorded_summary_matches_step_log(self, name, params):
        buffer = io.StringIO()
        payload, _ = record_session("run", params, buffer)
        session = read_session(io.StringIO(buffer.getvalue()))
        rebuilt = cost_summary_from_broadcasts(
            [step["broadcasts"] for step in session.steps]
        )
        assert rebuilt == payload["cost_summary"]


class TestWorkersInvariance:
    def _sweep_params(self, workers):
        return {
            "algorithms": ["neighbor_exchange", "flooding"],
            "kinds": ["bit_flip", "erasure"],
            "rates": [0.0, 0.1],
            "n": 6,
            "trials": 2,
            "seed": 0,
            "workers": workers,
        }

    # The sweep is far below the executor's in-process threshold, so
    # ``pool_at_once`` sets it to 0: the workers-2 session is pooled.
    def test_fault_sweep_session_independent_of_workers(self, pool_at_once):
        serial, parallel = io.StringIO(), io.StringIO()
        payload_1, _ = record_session(
            "fault-sweep", self._sweep_params(1), serial, run_id="golden"
        )
        payload_2, _ = record_session(
            "fault-sweep", self._sweep_params(2), parallel, run_id="golden"
        )
        session_1 = read_session(io.StringIO(serial.getvalue()))
        session_2 = read_session(io.StringIO(parallel.getvalue()))
        assert session_1.steps == session_2.steps
        # payloads agree on everything but the recorded worker count
        payload_1.pop("workers", None)
        payload_2.pop("workers", None)
        assert payload_1 == payload_2
        assert pool_at_once == [2]

    def test_fault_sweep_replay_matches_under_workers(self, pool_at_once):
        buffer = io.StringIO()
        record_session("fault-sweep", self._sweep_params(2), buffer)
        report = replay_session(io.StringIO(buffer.getvalue()))
        assert report.matched, report.describe()
        assert pool_at_once[:1] == [2]  # the recording ran pooled


class TestBatchKinds:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("exhaustive", {"n": 4, "workers": 1}),
            ("sampling", {"n": 4, "eps": 0.3, "samples": 60, "seed": 2, "workers": 1}),
            ("ranks", {"ns": [3, 4], "kernel": "auto", "workers": 1}),
        ],
    )
    def test_record_replay_round_trip(self, kind, params):
        buffer = io.StringIO()
        payload, _ = record_session(kind, params, buffer)
        report = replay_session(io.StringIO(buffer.getvalue()))
        assert report.matched, report.describe()
        assert report.replayed.result == payload
