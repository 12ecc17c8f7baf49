"""Tests for the graceful-degradation (fault-sweep) harness."""

import pytest

from repro.errors import FaultInjectionError
from repro.resilience import (
    FAULT_SWEEP_SCHEMA_VERSION,
    HARNESS_ALGORITHMS,
    fault_sweep,
    validate_fault_sweep_payload,
)


def _small_sweep(**overrides):
    kwargs = dict(
        algorithms=("neighbor_exchange",),
        kinds=("erasure", "crash"),
        rates=(0.0, 0.2),
        n=6,
        trials=4,
        seed=3,
    )
    kwargs.update(overrides)
    return fault_sweep(**kwargs)


class TestSweepShape:
    def test_one_curve_per_algorithm_kind_pair(self):
        report = _small_sweep()
        assert len(report.curves) == 2  # 1 algorithm x 2 kinds
        for curve in report.curves:
            assert [p.rate for p in curve.points] == [0.0, 0.2]
            for p in curve.points:
                assert p.trials == 4

    def test_zero_rate_is_always_correct_with_no_faults(self):
        report = _small_sweep()
        for curve in report.curves:
            baseline = curve.points[0]
            assert baseline.rate == 0.0
            assert baseline.correctness_rate == 1.0
            assert baseline.faults_injected == 0

    def test_known_algorithms_registered(self):
        assert set(HARNESS_ALGORITHMS) == {
            "neighbor_exchange",
            "flooding",
            "boruvka",
            "sketch",
        }

    def test_sweep_is_deterministic(self):
        a = _small_sweep().as_payload()
        b = _small_sweep().as_payload()
        for payload in (a, b):
            payload.pop("created_unix")
            payload.pop("wall_time_seconds")
        assert a == b

    def test_on_cell_reports_each_cell_then_the_end(self):
        calls = []
        _small_sweep(kinds=("erasure",), on_cell=lambda *call: calls.append(call))
        assert [event for event, _fields in calls] == ["sweep.cell"] * 2 + ["sweep.end"]
        cells = [fields for _event, fields in calls[:-1]]
        assert {fields["rate"] for fields in cells} == {0.0, 0.2}  # one per cell
        assert all(
            set(fields) == {"algorithm", "kind", "rate", "correct", "trials"}
            and fields["trials"] == 4
            for fields in cells
        )
        assert calls[-1][1] == {"cells": 2, "n": 6}


class TestSweepValidation:
    def test_payload_passes_schema_validation(self):
        payload = _small_sweep().as_payload()
        assert payload["schema_version"] == FAULT_SWEEP_SCHEMA_VERSION
        assert validate_fault_sweep_payload(payload) == []

    def test_validator_flags_broken_payloads(self):
        payload = _small_sweep().as_payload()
        payload["curves"][0]["points"][0]["correct"] = "three"
        del payload["n"]
        problems = validate_fault_sweep_payload(payload)
        assert len(problems) >= 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(FaultInjectionError):
            _small_sweep(algorithms=("dijkstra",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            _small_sweep(kinds=("gamma_ray",))

    def test_tiny_n_rejected(self):
        with pytest.raises(FaultInjectionError):
            _small_sweep(n=4)

    @pytest.mark.parametrize("rate", [-0.5, float("nan"), float("inf"), 1.5])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(FaultInjectionError, match="must be in"):
            _small_sweep(rates=(0.0, rate))
