"""Tests for the bench history store and the median+MAD regression
detector behind ``repro bench --history`` / ``repro compare``."""

import json

import pytest

from repro.obs import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    detect_regressions,
    history_record,
    read_history,
    render_perf_dashboard,
    sparkline,
    validate_history_record,
)
from repro.obs.regress import normalize_baseline


class _Result:
    """Duck-typed stand-in for BenchmarkResult."""

    def __init__(self, name, seconds, ok=True):
        self.name = name
        self.wall_time_seconds = seconds
        self.ok = ok


def _record(entries, quick=True, ts=0.0, sha="abc123", workers=1):
    return history_record(
        [_Result(name, seconds) for name, seconds in entries.items()],
        quick=quick,
        git_sha=sha,
        ts=ts,
        workers=workers,
    )


class TestHistoryStore:
    def test_record_shape_and_validation(self):
        record = _record({"simulator": 0.01, "crossing": 0.02})
        assert record["schema_version"] == HISTORY_SCHEMA_VERSION
        assert record["git_sha"] == "abc123"
        assert record["entries"]["simulator"] == {
            "wall_time_seconds": 0.01,
            "ok": True,
        }
        assert validate_history_record(record) == []

    def test_roundtrip_through_file(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        first = _record({"simulator": 0.01}, ts=1.0)
        second = _record({"simulator": 0.02}, ts=2.0)
        append_history(first, path)
        append_history(second, path)
        records = read_history(path)
        assert records == [first, second]

    def test_append_rejects_invalid_record(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        with pytest.raises(ValueError):
            append_history({"schema_version": "nope"}, path)

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        append_history(_record({"simulator": 0.01}), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "ts":')  # torn mid-write
        assert len(read_history(path)) == 1
        with pytest.raises(ValueError):
            read_history(path, skip_torn_tail=False)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(_record({"simulator": 0.01})) + "\n")
        with pytest.raises(ValueError):
            read_history(path)

    def test_validator_flags_bad_entries(self):
        record = _record({"simulator": 0.01})
        record["entries"]["simulator"]["wall_time_seconds"] = "fast"
        record["entries"]["simulator"].pop("ok")
        problems = validate_history_record(record)
        assert any("wall_time_seconds" in p for p in problems)
        assert any("ok" in p for p in problems)
        newer = _record({"simulator": 0.01})
        newer["schema_version"] = HISTORY_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_history_record(newer))

    def test_workers_field_recorded_and_validated(self):
        record = _record({"simulator": 0.01}, workers=4)
        assert record["workers"] == 4
        assert validate_history_record(record) == []
        # absent workers = a pre-parallel record, still valid (implies 1)
        legacy = _record({"simulator": 0.01})
        legacy.pop("workers")
        assert validate_history_record(legacy) == []
        for bad in (0, -1, True, "two", 1.5):
            broken = _record({"simulator": 0.01})
            broken["workers"] = bad
            assert any("workers" in p for p in validate_history_record(broken))


class TestDetector:
    def _history(self, series, latest, quick=True):
        records = [
            _record({"kernel": value}, quick=quick, ts=float(i))
            for i, value in enumerate(series)
        ]
        records.append(_record({"kernel": latest}, quick=quick, ts=99.0))
        return records

    def test_identical_history_is_ok(self):
        findings = detect_regressions(self._history([0.01] * 5, 0.01))
        assert [f.status for f in findings] == ["ok"]
        assert not findings[0].regressed

    def test_synthetic_2x_slowdown_regresses(self):
        findings = detect_regressions(self._history([0.01] * 5, 0.02))
        assert findings[0].status == "regressed"
        assert findings[0].ratio == pytest.approx(2.0)

    def test_improvement_detected(self):
        findings = detect_regressions(self._history([0.01] * 5, 0.004))
        assert findings[0].status == "improved"

    def test_min_sample_guard(self):
        findings = detect_regressions(self._history([0.01, 0.01], 0.05))
        assert findings[0].status == "insufficient"  # never "regressed"

    def test_new_kernel_flagged_not_regressed(self):
        history = [_record({"old": 0.01}, ts=0.0), _record({"fresh": 0.01}, ts=1.0)]
        findings = detect_regressions(history)
        assert [f.status for f in findings] == ["new"]

    def test_quick_and_full_never_compared(self):
        records = [_record({"kernel": 0.01}, quick=True, ts=float(i)) for i in range(5)]
        records.append(_record({"kernel": 0.05}, quick=False, ts=99.0))
        findings = detect_regressions(records)
        assert findings[0].status == "new"  # no full-mode baseline exists

    def test_worker_counts_never_compared(self):
        # a 4-worker run against a serial history: speedup, not baseline
        records = [
            _record({"kernel": 0.04}, ts=float(i), workers=1) for i in range(5)
        ]
        records.append(_record({"kernel": 0.01}, ts=99.0, workers=4))
        findings = detect_regressions(records)
        assert findings[0].status == "new"  # no 4-worker baseline exists
        # and a same-workers baseline behaves exactly as before
        records.extend(
            _record({"kernel": 0.01}, ts=100.0 + i, workers=4) for i in range(4)
        )
        records.append(_record({"kernel": 0.05}, ts=200.0, workers=4))
        findings = detect_regressions(records)
        assert findings[0].status == "regressed"
        assert findings[0].baseline_samples == 5  # only the workers=4 records

    def test_legacy_records_count_as_serial(self):
        # pre-parallel lines (no workers key) partition with workers=1
        legacy = []
        for i in range(4):
            record = _record({"kernel": 0.01}, ts=float(i))
            record.pop("workers")
            legacy.append(record)
        legacy.append(_record({"kernel": 0.01}, ts=99.0, workers=1))
        findings = detect_regressions(legacy)
        assert findings[0].status == "ok"
        assert findings[0].baseline_samples == 4

    def test_mad_gate_absorbs_noisy_kernels(self):
        # baseline swings 10..30ms (median 20, MAD 10); 26ms trips the
        # 1.25x ratio but sits inside median + 3*MAD, so: not a regression
        series = [0.010, 0.030, 0.020, 0.010, 0.030]
        findings = detect_regressions(self._history(series, 0.026))
        assert findings[0].status == "ok"

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            detect_regressions(self._history([0.01] * 5, 0.01), threshold=1.0)

    def test_empty_history(self):
        assert detect_regressions([]) == []

    def test_window_limits_baseline(self):
        # old fast records fall outside the window; recent slow ones rule
        series = [0.001] * 10 + [0.02] * 5
        findings = detect_regressions(self._history(series, 0.021), window=5)
        assert findings[0].status == "ok"
        assert findings[0].baseline_samples == 5


class TestDashboardAndBaseline:
    def test_sparkline_scales_to_range(self):
        line = sparkline([1.0, 2.0, 3.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_dashboard_renders_rows_and_verdicts(self):
        records = [
            _record({"simulator": 0.01, "crossing": 0.02}, ts=float(i))
            for i in range(4)
        ]
        records.append(_record({"simulator": 0.05, "crossing": 0.02}, ts=99.0))
        text = render_perf_dashboard(records)
        assert "| simulator |" in text and "| crossing |" in text
        assert "regressed" in text
        assert "abc123"[:12] in text

    def test_dashboard_empty_history(self):
        assert "No history" in render_perf_dashboard([])

    def test_normalize_baseline_accepts_three_shapes(self):
        flat = normalize_baseline({"simulator": 0.01})
        assert flat["entries"]["simulator"]["wall_time_seconds"] == 0.01
        wrapped = normalize_baseline(
            {"entries": {"simulator": {"wall_time_seconds": 0.01, "ok": True}}}
        )
        assert validate_history_record(wrapped) == []
        full = normalize_baseline(_record({"simulator": 0.01}))
        assert validate_history_record(full) == []

    def test_normalize_baseline_rejects_garbage(self):
        with pytest.raises(ValueError):
            normalize_baseline([1, 2, 3])
        with pytest.raises(ValueError):
            normalize_baseline({"simulator": "fast"})
        with pytest.raises(ValueError):
            normalize_baseline({})


class TestKernelField:
    """The ``kernel`` history field partitions baselines like ``workers``."""

    def test_kernel_field_recorded_and_validated(self):
        record = history_record(
            [_Result("simulator", 0.01)], quick=True, ts=0.0, kernel="packed"
        )
        assert record["kernel"] == "packed"
        assert validate_history_record(record) == []
        # absent kernel = a pre-kernels record, still valid (implies auto)
        legacy = _record({"simulator": 0.01})
        legacy.pop("kernel", None)
        assert validate_history_record(legacy) == []
        for bad in ("", 1, None):
            broken = _record({"simulator": 0.01})
            broken["kernel"] = bad
            assert any("kernel" in p for p in validate_history_record(broken))

    def _kernel_record(self, value, ts, kernel):
        return history_record(
            [_Result("kernel", value)], quick=True, ts=ts, kernel=kernel
        )

    def test_kernel_modes_never_compared(self):
        # a packed run against a reference-mode history: speedup, not baseline
        records = [
            self._kernel_record(0.04, float(i), "reference") for i in range(5)
        ]
        records.append(self._kernel_record(0.01, 99.0, "packed"))
        findings = detect_regressions(records)
        assert findings[0].status == "new"  # no packed baseline exists
        # and a same-kernel baseline behaves exactly as before
        records.extend(
            self._kernel_record(0.01, 100.0 + i, "packed") for i in range(4)
        )
        records.append(self._kernel_record(0.05, 200.0, "packed"))
        findings = detect_regressions(records)
        assert findings[0].status == "regressed"
        assert findings[0].baseline_samples == 5  # only the packed records

    def test_legacy_records_count_as_auto(self):
        legacy = []
        for i in range(4):
            rec = self._kernel_record(0.01, float(i), "auto")
            rec.pop("kernel")
            legacy.append(rec)
        legacy.append(self._kernel_record(0.01, 99.0, "auto"))
        findings = detect_regressions(legacy)
        assert findings[0].status == "ok"


class _CostResult(_Result):
    """A result that also carries a ledger cost summary."""

    def __init__(self, name, seconds, bits, rounds=None, ok=True):
        super().__init__(name, seconds, ok=ok)
        costs = {"total_bits": bits}
        if rounds is not None:
            costs["rounds"] = rounds
        self.costs = costs


def _cost_record(entries, quick=True, ts=0.0, workers=1):
    return history_record(
        [
            _CostResult(name, seconds, bits, rounds)
            for name, (seconds, bits, rounds) in entries.items()
        ],
        quick=quick,
        git_sha="abc123",
        ts=ts,
        workers=workers,
    )


class TestCostColumns:
    """The communication-cost change detector riding the perf history."""

    def test_history_record_carries_bits_and_rounds(self):
        record = _cost_record({"kernel": (0.01, 48, 6)})
        entry = record["entries"]["kernel"]
        assert entry["bits"] == 48
        assert entry["rounds"] == 6
        assert validate_history_record(record) == []

    def test_costless_results_emit_no_cost_fields(self):
        record = _record({"kernel": 0.01})
        entry = record["entries"]["kernel"]
        assert "bits" not in entry and "rounds" not in entry
        assert validate_history_record(record) == []

    def test_validator_rejects_bad_cost_fields(self):
        record = _cost_record({"kernel": (0.01, 48, 6)})
        record["entries"]["kernel"]["bits"] = -1
        assert any("bits" in p for p in validate_history_record(record))
        record["entries"]["kernel"]["bits"] = "lots"
        assert any("bits" in p for p in validate_history_record(record))
        record = _cost_record({"kernel": (0.01, 48, 6)})
        record["entries"]["kernel"]["rounds"] = -2
        assert any("rounds" in p for p in validate_history_record(record))

    def _cost_history(self, series_bits, latest_bits):
        records = [
            _cost_record({"kernel": (0.01, bits, 4)}, ts=float(i))
            for i, bits in enumerate(series_bits)
        ]
        records.append(_cost_record({"kernel": (0.01, latest_bits, 4)}, ts=99.0))
        return records

    def test_same_bits_status_same(self):
        findings = detect_regressions(self._cost_history([48] * 5, 48))
        (finding,) = findings
        assert finding.cost_status == "same"
        assert finding.latest_bits == 48 and finding.baseline_bits == 48
        assert not finding.cost_changed

    def test_changed_bits_flagged_even_when_time_is_fine(self):
        findings = detect_regressions(self._cost_history([48] * 5, 56))
        (finding,) = findings
        assert finding.cost_status == "changed"
        assert finding.cost_changed
        assert not finding.regressed  # wall time did not move
        assert finding.cost_row() == ["kernel", 56, 48, "CHANGED"]

    def test_no_cost_history_status_new(self):
        records = [_record({"kernel": 0.01}, ts=float(i)) for i in range(5)]
        records.append(_cost_record({"kernel": (0.01, 48, 4)}, ts=99.0))
        (finding,) = detect_regressions(records)
        assert finding.cost_status == "new"
        assert finding.latest_bits == 48 and finding.baseline_bits is None

    def test_costless_latest_status_na(self):
        findings = detect_regressions(
            [_record({"kernel": 0.01}, ts=float(i)) for i in range(6)]
        )
        (finding,) = findings
        assert finding.cost_status == "n/a"
        assert finding.latest_bits is None
        assert not finding.cost_changed

    def test_baseline_is_most_recent_record_with_bits(self):
        records = self._cost_history([48, 48, 56], 56)
        # A costless record in between must not reset the comparison.
        records.insert(3, _record({"kernel": 0.01}, ts=50.0))
        (finding,) = detect_regressions(records)
        assert finding.baseline_bits == 56
        assert finding.cost_status == "same"

    def test_dashboard_gains_cost_section_only_with_bits(self):
        dashboard = render_perf_dashboard(self._cost_history([48] * 5, 56))
        assert "## Communication cost" in dashboard
        assert "| changed |" in dashboard
        assert "| 56 | 4 | 48 |" in dashboard
        costless = [_record({"kernel": 0.01}, ts=float(i)) for i in range(6)]
        assert "Communication cost" not in render_perf_dashboard(costless)


class TestMeasuredRows:
    """A result's ``measured["rows"]`` table rides into its history entry."""

    def test_rows_copied_into_the_entry(self):
        result = _Result("kernels", 0.01)
        result.measured = {
            "rows": [{"family": "m_matrix", "engine": "numpy-batched", "seconds": 0.1}],
            "rank_engine": {"m_matrix": "numpy-batched"},
        }
        record = history_record([result], quick=True, ts=0.0)
        entry = record["entries"]["kernels"]
        assert entry["rows"] == result.measured["rows"]
        assert "rank_engine" not in entry
        assert validate_history_record(record) == []

    def test_rowless_results_emit_no_rows(self):
        assert "rows" not in _record({"kernels": 0.01})["entries"]["kernels"]

    def test_validator_rejects_non_list_rows(self):
        record = _record({"kernels": 0.01})
        record["entries"]["kernels"]["rows"] = {"family": "m_matrix"}
        assert any("rows" in p for p in validate_history_record(record))
