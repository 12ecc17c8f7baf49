"""Tests for the structured JSONL run-trace writer."""

import errno
import io
import json

import pytest

from repro.obs import TRACE_SCHEMA_VERSION, RunTrace, read_trace
from repro.replay import SessionStore
from repro.resilience import set_retry_sleep


class TestRunTrace:
    def test_header_line_carries_schema_and_run_id(self):
        buf = io.StringIO()
        trace = RunTrace(buf, run_id="abc123")
        events = read_trace(io.StringIO(buf.getvalue()))
        assert events[0]["event"] == "trace_start"
        assert events[0]["schema_version"] == TRACE_SCHEMA_VERSION
        assert events[0]["run_id"] == "abc123"
        assert trace.run_id == "abc123"

    def test_every_line_is_valid_json_with_increasing_seq(self):
        buf = io.StringIO()
        trace = RunTrace(buf)
        trace.emit("round", t=1, bits=4)
        trace.emit("round", t=2, bits=4)
        trace.emit("run_end", rounds_executed=2)
        lines = [line for line in buf.getvalue().splitlines() if line]
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert all(e["run_id"] == trace.run_id for e in events)
        assert events[-1]["event"] == "run_end"

    def test_fresh_run_ids_are_unique(self):
        a = RunTrace(io.StringIO())
        b = RunTrace(io.StringIO())
        assert a.run_id != b.run_id

    def test_non_json_values_coerced(self):
        buf = io.StringIO()
        RunTrace(buf).emit("weird", payload={1: {2, 3}})
        record = read_trace(io.StringIO(buf.getvalue()))[-1]
        assert isinstance(record["payload"]["1"], str)

    def test_emit_after_close_rejected(self):
        trace = RunTrace(io.StringIO())
        trace.close()
        with pytest.raises(ValueError):
            trace.emit("late")

    def test_file_sink_appends_and_reads_back(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        events = read_trace(path)
        assert len(events) == 4  # two headers + two rounds
        assert len({e["run_id"] for e in events}) == 2


class TestSimulatorTracing:
    def test_simulator_emits_run_and_round_events(self):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.instances import one_cycle_instance

        buf = io.StringIO()
        trace = RunTrace(buf)
        sim = Simulator(BCC1_KT0, trace=trace)
        result = sim.run(one_cycle_instance(6, kt=0), ConstantAlgorithm, 3)
        events = read_trace(io.StringIO(buf.getvalue()))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "trace_start"
        assert kinds[1] == "run_start"
        assert kinds.count("round") == result.rounds_executed == 3
        assert kinds[-1] == "run_end"
        run_start = events[1]
        assert run_start["n"] == 6 and run_start["kt"] == 0 and run_start["rounds_budget"] == 3
        rounds = [e for e in events if e["event"] == "round"]
        assert [e["t"] for e in rounds] == [1, 2, 3]
        assert all(e["bits"] == 6 for e in rounds)  # ConstantAlgorithm: 1 bit/vertex
        assert sum(e["bits"] for e in rounds) == result.total_bits_broadcast()
        run_end = events[-1]
        assert run_end["rounds_executed"] == 3
        assert run_end["total_bits"] == result.total_bits_broadcast()

    def test_trace_valid_jsonl_at_every_prefix(self):
        from repro.core import BCC1_KT0, SilentAlgorithm, Simulator
        from repro.instances import one_cycle_instance

        buf = io.StringIO()
        sim = Simulator(BCC1_KT0, trace=RunTrace(buf))
        sim.run(one_cycle_instance(4, kt=0), SilentAlgorithm, 2)
        lines = buf.getvalue().splitlines()
        for k in range(1, len(lines) + 1):
            for line in lines[:k]:
                json.loads(line)  # must never raise


class TestCrashSafety:
    """A killed process can tear at most the final line; readers cope."""

    def test_torn_tail_skipped_by_default(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
            trace.emit("round", t=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "x", "seq": 99, "ts": 1.0, "ev')  # kill -9 here
        events = read_trace(path)
        assert [e.get("t") for e in events[1:]] == [1, 2]

    def test_torn_tail_rejected_when_strict(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        with pytest.raises(ValueError):
            read_trace(path, skip_torn_tail=False)

    def test_mid_file_corruption_always_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"run_id": "a", "seq": 0, "ts": 1.0, "event": "trace_start"}\n'
            "GARBAGE NOT JSON\n"
            '{"run_id": "a", "seq": 1, "ts": 2.0, "event": "round"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            read_trace(str(path))

    def test_fsync_sink_works_for_files_and_memory(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path, fsync=True) as trace:
            trace.emit("round", t=1)
        assert len(read_trace(path)) == 2
        # in-memory sinks have no fd; fsync must degrade silently
        buf = io.StringIO()
        RunTrace(buf, fsync=True).emit("round", t=1)
        assert len(read_trace(io.StringIO(buf.getvalue()))) == 2

    def test_close_is_idempotent(self):
        trace = RunTrace(io.StringIO())
        trace.close()
        trace.close()
        assert trace.closed


class _TornOnce(io.StringIO):
    """Writes half of the first ``round`` line, then raises EIO."""

    def __init__(self):
        super().__init__()
        self.failed = False

    def write(self, text):
        if not self.failed and '"round"' in text:
            super().write(text[: len(text) // 2])
            self.failed = True
            raise OSError(errno.EIO, "flaky disk")
        return super().write(text)


class TestSharedLineWriter:
    """RunTrace and SessionStore write lines through one JsonlWriter."""

    def setup_method(self):
        self._previous = set_retry_sleep(None)  # deterministic: no sleeping

    def teardown_method(self):
        set_retry_sleep(self._previous)

    def test_trace_retries_and_rolls_back_a_torn_line(self):
        stream = _TornOnce()
        trace = RunTrace(stream, run_id="fixed")
        trace.emit("round", t=1)
        events = read_trace(io.StringIO(stream.getvalue()), skip_torn_tail=False)
        assert [e["event"] for e in events] == ["trace_start", "round"]
        assert [e["seq"] for e in events] == [0, 1]

    def test_trace_persistent_failure_raises(self):
        class Broken(io.StringIO):
            def write(self, text):
                raise OSError(errno.EIO, "gone")

        with pytest.raises(OSError):
            RunTrace(Broken())

    @pytest.mark.parametrize("writer", [RunTrace, SessionStore])
    def test_fsync_on_a_memory_sink_degrades_silently(self, writer):
        buf = io.StringIO()
        instance = writer(buf, fsync=True)
        instance.close()
        assert len(read_trace(io.StringIO(buf.getvalue()))) == 1


class TestSchemaCompatibility:
    """v4 is the oldest schema that validates; v1-v3 headers are rejected."""

    OLD_TRACE = (
        '{"run_id": "old", "seq": 0, "ts": 1.0, "event": "trace_start", "schema_version": 4}\n'
        '{"run_id": "old", "seq": 1, "ts": 1.1, "event": "run_start", "n": 6, "kt": 0}\n'
        '{"run_id": "old", "seq": 2, "ts": 1.2, "event": "round", "t": 1, "bits": 6}\n'
        '{"run_id": "old", "seq": 3, "ts": 1.3, "event": "run_end", "rounds_executed": 1}\n'
    )

    @staticmethod
    def declaring(version, text):
        return text.replace('"schema_version": 4', f'"schema_version": {version}', 1)

    def test_pre_v4_header_parses_but_is_rejected(self):
        from repro.obs import validate_trace_events

        assert validate_trace_events(read_trace(io.StringIO(self.OLD_TRACE))) == []
        for version in (1, 2, 3):
            events = read_trace(io.StringIO(self.declaring(version, self.OLD_TRACE)))
            assert len(events) == 4
            assert validate_trace_events(events) == ["schema_version must be >= 4"]

    def test_fault_event_in_v1_trace_flagged(self):
        from repro.obs import validate_trace_events

        text = self.declaring(1, self.OLD_TRACE) + (
            '{"run_id": "old", "seq": 4, "ts": 1.4, "event": "fault", "t": 1,'
            ' "kind": "bit_flip", "vertex": 0, "receiver": 2,'
            ' "original": "0", "delivered": "1"}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert problems == ["schema_version must be >= 4"]

    def test_newer_schema_version_flagged(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "new", "seq": 0, "ts": 1.0, "event": "trace_start",'
            f' "schema_version": {TRACE_SCHEMA_VERSION + 1}}}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert any("newer than supported" in p for p in problems)

    def test_validator_flags_bad_fault_fields_and_seq(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "r", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 4}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.1, "event": "fault", "t": "one",'
            ' "kind": "gamma_ray", "vertex": 0, "original": "0", "delivered": "1"}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.2, "event": "round", "t": 1}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert any("'t' is not int" in p for p in problems)
        assert any("unknown kind" in p for p in problems)
        assert any("strictly increasing" in p for p in problems)

    def test_validator_accepts_multi_run_appended_file(self, tmp_path):
        from repro.obs import validate_trace_events

        path = str(tmp_path / "trace.jsonl")
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        with RunTrace(path) as trace:
            trace.emit("round", t=1)
        assert validate_trace_events(read_trace(path)) == []


class TestSchemaV3SpansAndStats:
    """Trace-v3: span events, the schema_version read filter, trace_stats."""

    def _v3_with_spans(self):
        buf = io.StringIO()
        from repro.obs import SpanRecorder, use_recorder
        from repro.obs.spans import span

        trace = RunTrace(buf)
        rec = SpanRecorder(trace=trace)
        with use_recorder(rec):
            with span("outer", n=2):
                with span("inner"):
                    pass
        trace.close()
        return buf.getvalue()

    def test_v3_span_trace_validates(self):
        from repro.obs import validate_trace_events

        events = read_trace(io.StringIO(self._v3_with_spans()))
        assert validate_trace_events(events) == []
        kinds = [e["event"] for e in events]
        assert kinds.count("span_start") == 2
        assert kinds.count("span_end") == 2

    def test_span_event_in_v2_trace_flagged(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "r", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 2}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.1, "event": "span_start",'
            ' "span_id": 0, "parent_id": null, "name": "outer"}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert problems == ["schema_version must be >= 4"]

    def test_validator_flags_malformed_span_events(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "r", "seq": 0, "ts": 1.0, "event": "trace_start",'
            f' "schema_version": {TRACE_SCHEMA_VERSION}}}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.1, "event": "span_start",'
            ' "span_id": "zero", "parent_id": "none", "name": 7}\n'
            '{"run_id": "r", "seq": 2, "ts": 1.2, "event": "span_end",'
            ' "span_id": 0, "name": "outer", "duration_seconds": "fast"}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert any("span_id" in p for p in problems)
        assert any("parent_id" in p for p in problems)
        assert any("name" in p for p in problems)
        assert any("duration_seconds" in p for p in problems)

    def test_v4_and_v5_runs_validate_side_by_side(self):
        from repro.obs import validate_trace_events

        v4 = TestSchemaCompatibility.OLD_TRACE + (
            '{"run_id": "old", "seq": 4, "ts": 1.4, "event": "fault", "t": 1,'
            ' "kind": "bit_flip", "vertex": 0, "receiver": 2,'
            ' "original": "0", "delivered": "1"}\n'
        )
        combined = v4 + self._v3_with_spans()
        events = read_trace(io.StringIO(combined))
        assert validate_trace_events(events) == []
        versions = {
            e["run_id"]: e["schema_version"]
            for e in events
            if e["event"] == "trace_start"
        }
        assert sorted(versions.values()) == [4, TRACE_SCHEMA_VERSION]
        # a v3 run appended to the same file is judged, and rejected, alone
        v3 = TestSchemaCompatibility.declaring(3, v4.replace('"old"', '"older"'))
        problems = validate_trace_events(read_trace(io.StringIO(combined + v3)))
        assert problems == ["schema_version must be >= 4"]

    def test_read_trace_schema_version_filter(self):
        old = TestSchemaCompatibility.OLD_TRACE
        headerless = '{"run_id": "lost", "seq": 0, "ts": 3.0, "event": "round", "t": 1}\n'
        combined = old + headerless + self._v3_with_spans()
        latest = read_trace(
            io.StringIO(combined), schema_version=TRACE_SCHEMA_VERSION
        )
        assert latest  # the v3 run survives
        assert all(e["run_id"] != "old" for e in latest)
        assert all(e["run_id"] != "lost" for e in latest)  # headerless dropped
        oldest = read_trace(io.StringIO(combined), schema_version=4)
        assert {e["run_id"] for e in oldest} == {"old"}
        nobody = read_trace(io.StringIO(combined), schema_version=99)
        assert nobody == []

    def test_trace_stats_counts_per_run(self):
        from repro.obs import trace_stats

        old = TestSchemaCompatibility.OLD_TRACE
        headerless = '{"seq": 0, "ts": 3.0, "event": "round", "t": 1}\n'
        events = read_trace(io.StringIO(old + headerless))
        stats = trace_stats(events)
        assert stats["old"]["schema_version"] == 4
        assert stats["old"]["events"] == 4
        assert stats["old"]["by_event"] == {
            "trace_start": 1,
            "run_start": 1,
            "round": 1,
            "run_end": 1,
        }
        assert stats["?"]["schema_version"] is None
        assert stats["?"]["by_event"] == {"round": 1}

    def test_trace_stats_empty(self):
        from repro.obs import trace_stats

        assert trace_stats([]) == {}


class TestSchemaV4CostSummary:
    """Trace-v4: the cost_summary event the ledger-instrumented runs emit."""

    def _v4_with_costs(self, n=4, rounds=2):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.costs import CostLedger, use_ledger
        from repro.instances import one_cycle_instance

        buf = io.StringIO()
        trace = RunTrace(buf)
        with use_ledger(CostLedger()):
            Simulator(BCC1_KT0, trace=trace).run(
                one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds
            )
        trace.close()
        return buf.getvalue()

    def test_v4_cost_summary_emitted_and_validates(self):
        from repro.obs import validate_trace_events

        events = read_trace(io.StringIO(self._v4_with_costs(n=4, rounds=2)))
        assert validate_trace_events(events) == []
        kinds = [e["event"] for e in events]
        assert kinds.count("cost_summary") == 1
        # The summary lands after the rounds, just before run_end.
        assert kinds.index("cost_summary") == kinds.index("run_end") - 1
        summary = next(e for e in events if e["event"] == "cost_summary")
        assert summary["total_bits"] == 8 and summary["rounds"] == 2
        assert len(summary["per_vertex"]) == 4
        assert all(
            isinstance(v["vertex"], str) and v["bits"] == 2
            for v in summary["per_vertex"]
        )

    def test_no_ledger_means_no_cost_summary_event(self):
        from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
        from repro.instances import one_cycle_instance

        buf = io.StringIO()
        Simulator(BCC1_KT0, trace=RunTrace(buf)).run(
            one_cycle_instance(4, kt=0), ConstantAlgorithm, 2
        )
        kinds = [e["event"] for e in read_trace(io.StringIO(buf.getvalue()))]
        assert "cost_summary" not in kinds

    def test_cost_summary_in_v3_trace_flagged(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "r", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 3}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.1, "event": "cost_summary",'
            ' "total_bits": 8, "rounds": 2, "per_vertex": []}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert problems == ["schema_version must be >= 4"]

    def test_validator_flags_malformed_cost_summary(self):
        from repro.obs import validate_trace_events

        text = (
            '{"run_id": "r", "seq": 0, "ts": 1.0, "event": "trace_start",'
            f' "schema_version": {TRACE_SCHEMA_VERSION}}}\n'
            '{"run_id": "r", "seq": 1, "ts": 1.1, "event": "cost_summary",'
            ' "total_bits": "eight", "rounds": 2.5,'
            ' "per_vertex": [{"vertex": 0, "bits": "two", "silent_rounds": -1.5}]}\n'
        )
        problems = validate_trace_events(read_trace(io.StringIO(text)))
        assert any("total_bits" in p for p in problems)
        assert any("rounds" in p for p in problems)
        assert any("per_vertex" in p or "vertex" in p for p in problems)

    def test_torn_tail_on_v4_trace(self, tmp_path):
        path = tmp_path / "v4.jsonl"
        path.write_text(self._v4_with_costs(n=4, rounds=2), encoding="utf-8")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "r", "seq": 99, "event": "cost_summ')
        events = read_trace(str(path))  # torn tail skipped by default
        assert [e["event"] for e in events].count("cost_summary") == 1
        with pytest.raises(ValueError):
            read_trace(str(path), skip_torn_tail=False)

    def test_read_trace_filter_splits_v3_and_v4_runs(self):
        # A hand-written v4 span run beside a live one: the live writer
        # stamps the current version, so a mixed-version file has to come
        # from an older producer.
        v4_spans = (
            '{"run_id": "spanrun", "seq": 0, "ts": 1.0, "event": "trace_start",'
            ' "schema_version": 4}\n'
            '{"run_id": "spanrun", "seq": 1, "ts": 1.1, "event": "span_start",'
            ' "span_id": 0, "parent_id": null, "name": "outer", "attrs": {}}\n'
            '{"run_id": "spanrun", "seq": 2, "ts": 1.2, "event": "span_end",'
            ' "span_id": 0, "name": "outer", "duration_seconds": 0.1}\n'
        )
        live = self._v4_with_costs(n=4, rounds=2)
        combined = v4_spans + live
        # The live writer stamps the current schema version, so filter on
        # TRACE_SCHEMA_VERSION rather than a literal (this test tracks bumps).
        latest = read_trace(io.StringIO(combined), schema_version=TRACE_SCHEMA_VERSION)
        assert latest
        headers = [e for e in latest if e["event"] == "trace_start"]
        assert headers and all(
            e["schema_version"] == TRACE_SCHEMA_VERSION for e in headers
        )
        assert any(e["event"] == "cost_summary" for e in latest)
        assert not any(e["event"] == "span_start" for e in latest)
        spans_only = read_trace(io.StringIO(combined), schema_version=4)
        assert any(e["event"] == "span_start" for e in spans_only)
        assert not any(e["event"] == "cost_summary" for e in spans_only)


class TestTraceStatsSiblingKeys:
    """v4/v5 enrichment rides as *sibling* keys -- by_event stays stable."""

    def test_cost_bits_summed_across_cost_summaries(self):
        from repro.obs import trace_stats

        events = [
            {"run_id": "r", "event": "trace_start", "schema_version": 4},
            {"run_id": "r", "event": "cost_summary", "total_bits": 8, "rounds": 2},
            {"run_id": "r", "event": "cost_summary", "total_bits": 5, "rounds": 1},
        ]
        stats = trace_stats(events)
        assert stats["r"]["cost_bits"] == 13
        assert stats["r"]["by_event"]["cost_summary"] == 2
        # the sibling key never leaks into by_event
        assert "cost_bits" not in stats["r"]["by_event"]

    def test_non_int_total_bits_ignored(self):
        from repro.obs import trace_stats

        events = [{"run_id": "r", "event": "cost_summary", "total_bits": "8"}]
        assert "cost_bits" not in trace_stats(events)["r"]

    def test_session_envelopes_summarized(self):
        from repro.obs import trace_stats

        events = [
            {"run_id": "s", "event": "session_start", "kind": "run"},
            {"run_id": "s", "event": "step", "index": 0},
            {"run_id": "s", "event": "session_end", "steps": 6, "complete": True},
            {"run_id": "s", "event": "session_start", "kind": "fault-sweep"},
            {"run_id": "s", "event": "session_end", "steps": 4, "complete": False},
        ]
        sessions = trace_stats(events)["s"]["sessions"]
        assert sessions["kinds"] == {"run": 1, "fault-sweep": 1}
        assert sessions["steps"] == 10
        assert sessions["complete"] is False

    def test_plain_runs_carry_no_sibling_keys(self):
        from repro.obs import trace_stats

        events = [
            {"run_id": "r", "event": "trace_start", "schema_version": 4},
            {"run_id": "r", "event": "round", "t": 1},
        ]
        entry = trace_stats(events)["r"]
        assert "cost_bits" not in entry
        assert "sessions" not in entry
        assert set(entry) == {"schema_version", "events", "by_event"}

    def test_recorded_session_file_stats(self, tmp_path):
        from repro.obs import read_trace, trace_stats
        from repro.replay import record_session

        path = str(tmp_path / "session.json")
        record_session(
            "run",
            {"n": 6, "algorithm": "neighbor_exchange", "instance": "one_cycle"},
            path,
        )
        with open(path, "r", encoding="utf-8") as fh:
            events = read_trace(fh)
        (entry,) = trace_stats(events).values()
        assert entry["sessions"]["kinds"] == {"run": 1}
        assert entry["sessions"]["complete"] is True
        assert entry["sessions"]["steps"] == entry["by_event"]["step"]
