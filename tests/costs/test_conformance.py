"""Tests for the measured-vs-symbolic conformance checker.

The real bundled specs are exercised end to end (quick params), and
hand-built stub specs pin down the comparison semantics: exact equality
for ``kind="exact"``, at-or-above for ``kind="floor"``, and the
independent CostLedger count having to agree with the transcript total.
"""

import pytest

from repro.costs import (
    HAVE_SYMPY,
    CostSpec,
    MeasuredCost,
    all_specs,
    check_all,
    check_spec,
    get_spec,
    spec_names,
    symbols,
)
from repro.costs.conformance import _conforms

_n, _t = symbols("n t")


def _stub_spec(**overrides):
    """An exact n*t spec whose measure reports whatever the test wants."""
    measured = overrides.pop("measured", None)

    def measure(params):
        if measured is not None:
            return measured
        n, t = params["n"], params["t"]
        return MeasuredCost(rounds=t, bits=n * t, env={"n": n, "t": t})

    fields = dict(
        name="stub",
        description="a stub spec for conformance-semantics tests",
        kind="exact",
        rounds_expr=_t,
        bits_expr=_n * _t,
        measure=measure,
        quick_params={"n": 4, "t": 3},
        full_params={"n": 8, "t": 5},
    )
    fields.update(overrides)
    return CostSpec(**fields)


class TestBundledSpecs:
    def test_registry_is_well_formed(self):
        names = spec_names()
        assert len(names) == len(set(names))
        assert "constant_cycle" in names
        assert "two_partition_simulation" in names
        assert [s.name for s in all_specs()] == list(names)

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="constant_cycle"):
            get_spec("bogus")

    def test_check_all_quick_passes(self):
        results = check_all(quick=True)
        assert len(results) == len(spec_names())
        for result in results:
            assert result.ok, (result.name, result.problems)
            assert result.sympy_checked is HAVE_SYMPY

    def test_check_all_names_filter(self):
        results = check_all(quick=True, names=["constant_cycle", "silent_star"])
        assert [r.name for r in results] == ["constant_cycle", "silent_star"]

    def test_check_all_unknown_name_raises(self):
        with pytest.raises(KeyError):
            check_all(quick=True, names=["nope"])

    def test_exact_spec_measured_equals_predicted(self):
        result = check_spec(get_spec("constant_cycle"), quick=True)
        assert result.ok
        assert result.measured_bits == result.predicted_bits
        assert result.measured_rounds == result.predicted_rounds
        assert result.ledger_bits == result.measured_bits

    def test_floor_spec_sits_above_its_bound(self):
        result = check_spec(get_spec("omega_total_bits_kt1"), quick=True)
        assert result.ok
        assert result.kind == "floor"
        assert result.measured_bits >= result.predicted_bits


class TestComparisonSemantics:
    def test_conforms_exact(self):
        assert _conforms("exact", 12, 12)
        assert not _conforms("exact", 12, 13)
        assert not _conforms("exact", 13, 12)

    def test_conforms_floor(self):
        assert _conforms("floor", 13, 12)
        assert _conforms("floor", 12, 12)
        assert not _conforms("floor", 11, 12)

    def test_conforms_floor_float_slack(self):
        # A float prediction a hair above the measurement (pure float
        # noise) must not fail the floor.
        assert _conforms("floor", 12, 12 + 1e-12)

    def test_stub_passes_when_measure_matches(self):
        result = check_spec(_stub_spec(), quick=True)
        assert result.ok and result.problems == []
        assert result.predicted_bits == 12 and result.measured_bits == 12

    def test_exact_bit_mismatch_is_reported(self):
        bad = _stub_spec(
            measured=MeasuredCost(rounds=3, bits=99, env={"n": 4, "t": 3})
        )
        result = check_spec(bad, quick=True)
        assert not result.ok
        assert any("bits" in p for p in result.problems)

    def test_exact_round_mismatch_is_reported(self):
        bad = _stub_spec(
            measured=MeasuredCost(rounds=7, bits=12, env={"n": 4, "t": 3})
        )
        result = check_spec(bad, quick=True)
        assert not result.ok
        assert any("rounds" in p for p in result.problems)

    def test_floor_violation_is_reported(self):
        below = _stub_spec(
            kind="floor",
            measured=MeasuredCost(rounds=3, bits=11, env={"n": 4, "t": 3}),
        )
        result = check_spec(below, quick=True)
        assert not result.ok

    def test_floor_overshoot_is_fine(self):
        above = _stub_spec(
            kind="floor",
            measured=MeasuredCost(rounds=5, bits=100, env={"n": 4, "t": 3}),
        )
        assert check_spec(above, quick=True).ok

    def test_ledger_disagreement_is_its_own_problem(self):
        lying = _stub_spec(
            measured=MeasuredCost(
                rounds=3, bits=12, env={"n": 4, "t": 3}, ledger_bits=11
            )
        )
        result = check_spec(lying, quick=True)
        assert not result.ok
        assert any("ledger disagreement" in p for p in result.problems)

    def test_full_params_are_used_when_quick_false(self):
        result = check_spec(_stub_spec(), quick=False)
        assert result.ok
        assert result.params == {"n": 8, "t": 5}
        assert result.measured_bits == 40


class TestSpecValidation:
    def test_kind_is_validated(self):
        with pytest.raises(ValueError, match="exact"):
            _stub_spec(kind="approximate")

    def test_at_least_one_expression_required(self):
        with pytest.raises(ValueError, match="no expressions"):
            _stub_spec(rounds_expr=None, bits_expr=None)

    def test_rounds_only_spec_skips_bits(self):
        result = check_spec(_stub_spec(bits_expr=None), quick=True)
        assert result.ok
        assert result.predicted_bits is None


class TestResultShape:
    def test_row_and_as_dict(self):
        result = check_spec(_stub_spec(), quick=True)
        row = result.row()
        assert row[0] == "stub"
        assert row[-1] == "ok"
        payload = result.as_dict()
        for key in (
            "name",
            "kind",
            "quick",
            "params",
            "predicted_bits",
            "measured_bits",
            "ledger_bits",
            "sympy_checked",
            "ok",
            "problems",
        ):
            assert key in payload
        assert payload["ok"] is True

    def test_mismatch_row_says_so(self):
        bad = _stub_spec(
            measured=MeasuredCost(rounds=3, bits=99, env={"n": 4, "t": 3})
        )
        assert check_spec(bad, quick=True).row()[-1] == "MISMATCH"
