"""Golden-schema tests for the benchmark harness and BENCH_*.json files."""

import json
import os

import pytest

from repro.kernels import HAVE_NUMPY
from repro.obs import (
    BENCH_SCHEMA_VERSION,
    BenchmarkHarness,
    load_bench_payloads,
    validate_bench_payload,
)

#: Benches whose kernels run the instrumented round engine.
SIMULATOR_BACKED = "simulator"

#: The exact key set of a schema-version-1 payload (the golden schema).
GOLDEN_KEYS = {
    "schema_version",
    "name",
    "description",
    "created_unix",
    "quick",
    "params",
    "wall_time_seconds",
    "measured",
    "predicted",
    "ok",
    "metrics",
    "costs",  # the run's CostLedger summary (PR 6); optional in the schema
}


#: Claims the runners' ``ok`` gates beyond their headline value, as
#: (runner, measured key, value at the quick parameters).
FOLDED_CLAIMS = [
    ("simulator", "counters_match_run", True),
    ("simulator", "messages_validated", 16 * 4),
    ("simulator", "round_samples", 4),
    ("kt0_star", "floor_has_shape", True),
    ("kt0_constant_error", "constant_forced_error", pytest.approx(0.5)),
    ("partition_rank", "trivial_protocol_bits", 4 * 2 + 1),
    ("reduction", "connectivity_agreements", 3 * 3),
    ("upper_bounds", "full_adjacency_rounds", 16),
    ("mutual_information", "chain_holds", True),
    ("mutual_information", "round_bound_r_squared", pytest.approx(0.998, abs=1e-3)),
    ("sampling", "growth_monotone", True),
    ("indist_degrees", "split_counts_match", True),
    ("ablations", "hopcroft_karp_matching", 10),
    ("ablations", "e_rank_bareiss", 3),
    ("ablations", "e_rank_mod_p", 3),
    ("ablations", "pls_complete", True),
    ("kernels", "m_matrix_rank", 52),
    ("kernels", "e_matrix_rank", 105),
    ("costs", "ledger_total_bits", 16 * 4),
    ("costs", "ledger_deterministic_per_vertex", True),
]


@pytest.fixture(scope="module")
def quick_results():
    harness = BenchmarkHarness(out_dir=None, quick=True)
    names = sorted({name for name, _key, _value in FOLDED_CLAIMS})
    return {name: harness.run_one(name) for name in names}


class TestHarness:
    @pytest.mark.parametrize("name,key,expected", FOLDED_CLAIMS)
    def test_folded_claim_measured_and_gated(self, quick_results, name, key, expected):
        result = quick_results[name]
        assert result.measured[key] == expected
        assert result.ok

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            BenchmarkHarness(out_dir=None).run_one("nope")

    def test_run_without_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = BenchmarkHarness(out_dir=None, quick=True).run_one("reduction")
        assert result.path is None
        assert list(tmp_path.iterdir()) == []

    def test_quick_and_full_params_differ_where_declared(self):
        harness_quick = BenchmarkHarness(out_dir=None, quick=True)
        result = harness_quick.run_one("crossing")
        assert result.quick is True
        assert result.params == {"n": 12, "rounds": 2}


class TestGoldenSchema:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("bench"))
        harness = BenchmarkHarness(out_dir=out, quick=True)
        results = harness.run([SIMULATOR_BACKED, "exhaustive", "kt1_simulation"])
        return out, results

    def test_payload_has_exactly_the_golden_keys(self, written):
        out, _results = written
        for _path, payload in load_bench_payloads(out):
            assert set(payload.keys()) == GOLDEN_KEYS
            assert payload["schema_version"] == BENCH_SCHEMA_VERSION

    def test_files_round_trip_and_validate(self, written):
        out, results = written
        payloads = load_bench_payloads(out)
        assert len(payloads) == len(results)
        for path, payload in payloads:
            assert os.path.basename(path) == f"BENCH_{payload['name']}.json"
            assert validate_bench_payload(payload) == []

    def test_simulator_bench_carries_the_three_core_metrics(self, written):
        out, _results = written
        payload = dict(load_bench_payloads(out))[os.path.join(out, "BENCH_simulator.json")]
        counters = payload["metrics"]["counters"]
        assert counters["simulator.rounds_executed"] > 0
        assert counters["simulator.bits_broadcast"] > 0
        assert payload["metrics"]["histograms"]["simulator.round_seconds"]["count"] > 0

    def test_exhaustive_bench_carries_throughput_metrics(self, written):
        out, _results = written
        payload = dict(load_bench_payloads(out))[os.path.join(out, "BENCH_exhaustive.json")]
        counters = payload["metrics"]["counters"]
        assert counters["exhaustive.assignments_enumerated"] == 2**6
        assert payload["metrics"]["gauges"]["exhaustive.instances_per_sec"] > 0

    def test_twoparty_bench_carries_bit_accounting(self, written):
        out, _results = written
        payload = dict(load_bench_payloads(out))[
            os.path.join(out, "BENCH_kt1_simulation.json")
        ]
        counters = payload["metrics"]["counters"]
        assert counters["twoparty.bits_sent"] > 0
        assert counters["twoparty.simulated_rounds"] > 0


class TestValidator:
    def _valid_payload(self):
        return {
            "schema_version": 1,
            "name": "x",
            "description": "d",
            "created_unix": 1.0,
            "quick": True,
            "params": {},
            "wall_time_seconds": 0.1,
            "measured": {},
            "predicted": {},
            "ok": True,
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def test_valid_payload_passes(self):
        assert validate_bench_payload(self._valid_payload()) == []

    def test_missing_field_reported(self):
        payload = self._valid_payload()
        del payload["wall_time_seconds"]
        problems = validate_bench_payload(payload)
        assert any("wall_time_seconds" in p for p in problems)

    def test_future_schema_version_reported(self):
        payload = self._valid_payload()
        payload["schema_version"] = BENCH_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_bench_payload(payload))

    def test_bool_counter_rejected(self):
        payload = self._valid_payload()
        payload["metrics"]["counters"]["bad"] = True
        assert any("bad" in p for p in validate_bench_payload(payload))

    def test_malformed_histogram_rejected(self):
        payload = self._valid_payload()
        payload["metrics"]["histograms"]["h"] = {"count": 1}
        problems = validate_bench_payload(payload)
        assert any("'h'" in p for p in problems)


class TestCliIntegration:
    def test_bench_quick_writes_at_least_five_files(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path)
        code = main(["bench", "--quick", "--out-dir", out])
        assert code == 0
        files = [f for f in os.listdir(out) if f.startswith("BENCH_") and f.endswith(".json")]
        assert len(files) >= 5
        simulator_backed = 0
        for name in files:
            with open(os.path.join(out, name), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            assert validate_bench_payload(payload) == []
            counters = payload["metrics"]["counters"]
            if (
                counters.get("simulator.rounds_executed", 0) > 0
                and counters.get("simulator.bits_broadcast", 0) > 0
                and payload["metrics"]["histograms"]
                .get("simulator.round_seconds", {})
                .get("count", 0)
                > 0
            ):
                simulator_backed += 1
        # the acceptance bar: >= 5 records carry the three simulator metrics
        assert simulator_backed >= 5

    def test_bench_only_subset(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path)
        assert main(["bench", "--quick", "--out-dir", out, "--only", "reduction"]) == 0
        assert os.listdir(out) == ["BENCH_reduction.json"]

    def test_report_validates_written_files(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path)
        assert main(["bench", "--quick", "--out-dir", out, "--only", "simulator"]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["headers"][0] == "benchmark"
        assert payload["rows"][0][0] == "simulator"

    def test_report_flags_invalid_files(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "BENCH_corrupt.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "corrupt"}))
        assert main(["report", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--dir", str(tmp_path)]) == 1


class TestWorkersInjection:
    """The harness injects its ``workers`` into supporting specs only."""

    def test_supporting_spec_gets_the_workers_param(self):
        harness = BenchmarkHarness(out_dir=None, quick=True, workers=2)
        result = harness.run_one("exhaustive")
        assert result.params["workers"] == 2
        assert result.ok

    def test_non_supporting_spec_untouched(self):
        harness = BenchmarkHarness(out_dir=None, quick=True, workers=2)
        result = harness.run_one("crossing")
        assert "workers" not in result.params

    def test_default_is_serial(self):
        result = BenchmarkHarness(out_dir=None, quick=True).run_one("exhaustive")
        assert result.params["workers"] == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ValueError):
            BenchmarkHarness(out_dir=None, workers=bad)

    def test_parallel_spec_reports_speedups_and_identity(self):
        result = BenchmarkHarness(out_dir=None, quick=True).run_one("parallel")
        assert result.ok  # ok gates on report identity, never on speed
        assert result.measured["reports_identical"] is True
        assert result.measured["serial_seconds"] > 0.0
        assert result.measured["fanout_seconds"] > 0.0
        assert result.predicted["reports_identical"] is True


class TestKernelInjection:
    """The harness injects its ``kernel`` into supporting specs only."""

    def test_supporting_spec_gets_the_kernel_param(self):
        harness = BenchmarkHarness(out_dir=None, quick=True, kernel="reference")
        result = harness.run_one("partition_rank")
        assert result.params["kernel"] == "reference"
        assert result.ok

    def test_non_supporting_spec_untouched(self):
        harness = BenchmarkHarness(out_dir=None, quick=True, kernel="reference")
        result = harness.run_one("crossing")
        assert "kernel" not in result.params

    def test_default_is_auto(self):
        result = BenchmarkHarness(out_dir=None, quick=True).run_one("partition_rank")
        assert result.params["kernel"] == "auto"

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkHarness(out_dir=None, kernel="fast")

    def test_kernels_spec_identity_gated(self):
        result = BenchmarkHarness(out_dir=None, quick=True).run_one("kernels")
        assert result.ok  # ok gates on identity, never on speed
        assert result.measured["results_identical"] is True
        rows = result.measured["rows"]
        families = {"m_matrix", "e_matrix", "random_dense", "random_sparse"}
        assert {row["family"] for row in rows} == families
        engines = {"reference", "numpy-batched"} if HAVE_NUMPY else {"reference"}
        assert {row["engine"] for row in rows} == engines
        # one dispatched engine per family: every quick matrix has at
        # least BATCHED_MIN_ROWS rows, so auto runs it batched
        dispatched = "numpy-batched" if HAVE_NUMPY else "reference"
        assert result.measured["rank_engine"] == dict.fromkeys(families, dispatched)
        assert all(row["seconds"] > 0.0 for row in rows)
        assert result.predicted["results_identical"] is True

    def test_kernels_spec_reference_mode_still_ok(self):
        # forcing kernel=reference compares reference to itself: identical
        harness = BenchmarkHarness(out_dir=None, quick=True, kernel="reference")
        result = harness.run_one("kernels")
        assert result.ok
        assert set(result.measured["rank_engine"].values()) == {"reference"}
        assert result.params["kernel"] == "reference"
