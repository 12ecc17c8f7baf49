"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "crossing" in out and "upper-bounds" in out

    def test_crossing(self, capsys):
        assert main(["crossing", "--n", "10", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 3.4" in out and "True" in out

    def test_star(self, capsys):
        assert main(["star", "--n", "15", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.5" in out

    def test_forced_error(self, capsys):
        assert main(["forced-error", "--n", "6", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "forced error" in out

    def test_ratio(self, capsys):
        assert main(["ratio", "--max-exp", "3"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 3.9" in out

    def test_ranks(self, capsys):
        assert main(["ranks", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 2.3" in out

    def test_reduction_correct(self, capsys):
        assert main(["reduction", "--n", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.3" in out

    def test_information(self, capsys):
        assert main(["information", "--n", "4", "--eps", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.5" in out

    def test_upper_bounds(self, capsys):
        assert main(["upper-bounds", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "NeighborExchange" in out and "Peeling" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestObservabilityFlags:
    def test_crossing_json_emits_valid_json(self, capsys):
        assert main(["crossing", "--n", "10", "--rounds", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["title"] == "Figure 1 / Lemma 3.4 (E1)"
        assert payload["headers"][0] == "n"
        assert payload["rows"][0][0] == 10
        assert payload["rows"][0][3] is True  # premise, a real JSON bool

    def test_star_json_emits_valid_json(self, capsys):
        assert main(["star", "--n", "15", "--rounds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert "Theorem 3.5" in payload["title"]

    def test_ranks_json_rows_match_table_shape(self, capsys):
        assert main(["ranks", "--max-n", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert len(payload["headers"]) == 4
        assert all(len(row) == 4 for row in payload["rows"])

    def test_crossing_trace_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = str(tmp_path / "t.jsonl")
        assert main(["crossing", "--n", "8", "--rounds", "2", "--trace", path]) == 0
        events = read_trace(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "trace_start"
        # Lemma 3.4 check runs the simulator on both instances
        assert kinds.count("run_start") == 2
        assert kinds.count("run_end") == 2
        assert any(e["event"] == "round" for e in events)

    def test_reduction_trace_records_turns(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = str(tmp_path / "red.jsonl")
        assert main(["reduction", "--n", "6", "--seed", "3", "--trace", path]) == 0
        events = read_trace(path)
        kinds = [e["event"] for e in events]
        assert "protocol_start" in kinds and "protocol_end" in kinds
        turns = [e for e in events if e["event"] == "turn"]
        assert turns and all(e["bits"] >= 1 for e in turns)
        end = [e for e in events if e["event"] == "protocol_end"][0]
        assert end["correct"] is True

    def test_list_mentions_bench_and_report(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out and "report" in out


class TestWorkersFlag:
    """``--workers`` fans out without changing any paper-facing number."""

    def test_exhaustive_workers_identical_to_serial(self, capsys):
        assert main(["exhaustive", "--n", "4", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out.strip())
        assert main(["exhaustive", "--n", "4", "--workers", "2", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out.strip())
        assert parallel == serial

    def test_exhaustive_workers_auto(self, capsys):
        # 0 = one process per CPU; still the same deterministic report
        assert main(["exhaustive", "--n", "4", "--workers", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["rows"][0][-1] == "complete"

    def test_sampling_workers_identical_across_counts(self, capsys):
        # every workers>1 count shards the same plan: identical output
        outs = []
        for w in ("2", "4"):
            assert main(["sampling", "--n", "4", "--samples", "40",
                         "--workers", w, "--json"]) == 0
            outs.append(json.loads(capsys.readouterr().out.strip()))
        assert outs[0] == outs[1]
        assert outs[0]["rows"][0][-1] == "complete"

    def test_fault_sweep_workers_identical_to_serial(self, capsys):
        base = ["fault-sweep", "--n", "6", "--trials", "2",
                "--rates", "0.0", "0.2", "--kinds", "crash",
                "--algorithms", "neighbor_exchange", "--json"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out.strip())
        assert parallel == serial  # curves are rate-deterministic

    def test_negative_workers_exits_two(self, capsys):
        assert main(["exhaustive", "--n", "3", "--workers", "-2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_workers_lands_in_history_record(self, tmp_path, capsys):
        from repro.obs import read_history

        out = str(tmp_path / "results")
        hist = str(tmp_path / "hist.jsonl")
        assert main(["bench", "--quick", "--only", "crossing", "--workers", "2",
                     "--out-dir", out, "--history", hist]) == 0
        (record,) = read_history(hist)
        assert record["workers"] == 2


class TestKernelFlag:
    """``--kernel`` switches engines without changing any paper-facing number."""

    def test_ranks_packed_identical_to_reference(self, capsys):
        assert main(["ranks", "--max-n", "4", "--kernel", "reference",
                     "--json"]) == 0
        reference = json.loads(capsys.readouterr().out.strip())
        assert main(["ranks", "--max-n", "4", "--kernel", "auto",
                     "--json"]) == 0
        fast = json.loads(capsys.readouterr().out.strip())
        assert fast == reference

    def test_ranks_kernel_with_workers_identical(self, capsys):
        assert main(["ranks", "--max-n", "4", "--json"]) == 0
        default = json.loads(capsys.readouterr().out.strip())
        assert main(["ranks", "--max-n", "4", "--kernel", "auto", "--json"]) == 0
        assert json.loads(capsys.readouterr().out.strip()) == default
        # ranks runs no fan-out, so it takes no --workers
        with pytest.raises(SystemExit) as exc:
            main(["ranks", "--max-n", "4", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_kernel_exits_two(self, capsys):
        # the retired rank modes are unknown now, like any other name
        for bad in ("fast", "packed", "four-russians", "sparse"):
            with pytest.raises(SystemExit) as exc:
                main(["ranks", "--max-n", "3", "--kernel", bad])
            assert exc.value.code == 2
            assert "--kernel" in capsys.readouterr().err

    def test_ranks_kernels_and_workers_identical(self, capsys):
        assert main(["ranks", "--max-n", "4", "--kernel", "reference",
                     "--json"]) == 0
        reference = capsys.readouterr().out
        assert main(["ranks", "--max-n", "4", "--json"]) == 0
        assert capsys.readouterr().out == reference

    def test_bench_kernel_lands_in_history_record(self, tmp_path, capsys):
        from repro.obs import read_history

        out = str(tmp_path / "results")
        hist = str(tmp_path / "hist.jsonl")
        assert main(["bench", "--quick", "--only", "kernels",
                     "--kernel", "reference", "--out-dir", out,
                     "--history", hist]) == 0
        (record,) = read_history(hist)
        assert record["kernel"] == "reference"
        assert record["workers"] == 1

    def test_bench_kernels_spec_ok_under_packed(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["bench", "--quick", "--only", "kernels",
                     "--kernel", "auto", "--out-dir", out]) == 0
        payload = json.loads(
            (tmp_path / "results" / "BENCH_kernels.json").read_text()
        )
        assert payload["ok"] is True
        assert payload["measured"]["results_identical"] is True


class TestCostCheck:
    """``repro cost-check``: measured bits/rounds vs the symbolic specs."""

    def test_quick_check_passes(self, capsys):
        assert main(["cost-check", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "constant_cycle" in out
        assert "two_partition_simulation" in out
        assert "MISMATCH" not in out

    def test_only_filter_and_json(self, capsys):
        assert main(["cost-check", "--quick", "--only",
                     "neighbor_exchange_kt1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        (row,) = payload["rows"]
        name, kind, rounds, vs_rounds, bits, vs_bits, _backend, verdict = row
        assert name == "neighbor_exchange_kt1"
        assert verdict == "ok"
        assert vs_rounds == f"== {rounds}" and vs_bits == f"== {bits}"

    def test_unknown_spec_exits_two(self, capsys):
        assert main(["cost-check", "--only", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "constant_cycle" in err  # the known names are listed

    def test_floor_specs_included(self, capsys):
        assert main(["cost-check", "--quick", "--only",
                     "omega_total_bits_kt1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        (row,) = payload["rows"]
        name, kind, _rounds, _vs_rounds, bits, vs_bits, _backend, verdict = row
        assert name == "omega_total_bits_kt1"
        assert kind == "floor" and verdict == "ok"
        assert vs_bits.startswith(">=")


class TestReportPerVertex:
    """``repro report --per-vertex``: the ledger's per-vertex attribution."""

    def _bench(self, tmp_path):
        out = str(tmp_path / "results")
        assert main(["bench", "--quick", "--only", "simulator",
                     "--out-dir", out]) == 0
        return out

    def test_report_shows_ledger_bits_column(self, tmp_path, capsys):
        out = self._bench(tmp_path)
        capsys.readouterr()
        assert main(["report", "--dir", out]) == 0
        assert "ledger bits" in capsys.readouterr().out

    def test_per_vertex_table_rendered(self, tmp_path, capsys):
        out = self._bench(tmp_path)
        capsys.readouterr()
        assert main(["report", "--dir", out, "--per-vertex"]) == 0
        report = capsys.readouterr().out
        assert "bits sent" in report
        assert "silent rounds" in report
