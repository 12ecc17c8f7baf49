"""CLI surface of the result cache: --cache flags, the cache subcommand,
warm-run byte identity, and the trace/dash/history integrations."""

import json
import os

import pytest

from repro.cache import ResultCache
from repro.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWarmRunsAreByteIdentical:
    def test_exhaustive_json_stdout(self, tmp_path, capsys):
        argv = ["exhaustive", "--n", "4", "--json", "--cache", str(tmp_path / "c")]
        code, cold_out, cold_err = run_cli(capsys, argv)
        assert code == 0
        code, warm_out, warm_err = run_cli(capsys, argv)
        assert code == 0
        assert warm_out == cold_out  # stdout byte-identical, cold or warm
        # cold: the request and its one shard miss; both are stored
        assert "cache: hits=0 misses=2 stored=2" in cold_err
        assert "cache: hits=1 misses=0" in warm_err
        json.loads(cold_out)  # stdout stays one parseable object

    def test_sampling_stdout_identical_across_workers_cold_and_warm(
        self, tmp_path, capsys
    ):
        argv = ["sampling", "--n", "6", "--samples", "3000", "--seed", "1", "--json"]
        cache = ["--cache", str(tmp_path / "c")]
        code, cold_w1, _ = run_cli(capsys, argv + ["--workers", "1"] + cache)
        assert code == 0
        code, warm_w2, warm_err = run_cli(capsys, argv + ["--workers", "2"] + cache)
        assert code == 0
        assert "cache: hits=1 misses=0" in warm_err
        code, cold_w2, _ = run_cli(capsys, argv + ["--workers", "2"])
        assert code == 0
        assert cold_w1 == warm_w2 == cold_w2

    def test_fault_sweep_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = [
            "fault-sweep", "--quick", "--out", str(out),
            "--cache", str(tmp_path / "c"),
        ]
        assert run_cli(capsys, argv)[0] == 0
        cold_bytes = out.read_bytes()
        out.unlink()
        assert run_cli(capsys, argv)[0] == 0
        assert out.read_bytes() == cold_bytes

    def test_ranks_and_sampling_report_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        ranks = ["ranks", "--max-n", "3", "--cache", cache_dir]
        run_cli(capsys, ranks)
        _code, _out, err = run_cli(capsys, ranks)
        assert "hits=1" in err
        sampling = [
            "sampling", "--n", "4", "--samples", "50", "--cache", cache_dir,
        ]
        run_cli(capsys, sampling)
        _code, _out, err = run_cli(capsys, sampling)
        assert "hits=1" in err

    def test_env_var_enables_the_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        run_cli(capsys, ["exhaustive", "--n", "4"])
        _code, _out, err = run_cli(capsys, ["exhaustive", "--n", "4"])
        assert "hits=1" in err

    def test_no_cache_flag_means_no_cache_chatter(self, tmp_path, capsys):
        _code, _out, err = run_cli(capsys, ["exhaustive", "--n", "4"])
        assert "cache:" not in err


class TestCacheSubcommand:
    def _warm(self, capsys, cache_dir):
        run_cli(capsys, ["exhaustive", "--n", "4", "--cache", cache_dir])

    def test_stats(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        self._warm(capsys, cache_dir)
        code, out, _err = run_cli(capsys, ["cache", "stats", "--dir", cache_dir])
        assert code == 0
        assert "entries" in out and "exhaustive" in out

    def test_stats_json(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        self._warm(capsys, cache_dir)
        code, out, _err = run_cli(
            capsys, ["cache", "stats", "--dir", cache_dir, "--json"]
        )
        assert code == 0
        json.loads(out)

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        self._warm(capsys, cache_dir)
        assert run_cli(capsys, ["cache", "verify", "--dir", cache_dir])[0] == 0
        cache = ResultCache(cache_dir)
        key, path = next(iter(cache._iter_entries()))
        with open(path, "wb") as handle:
            handle.write(b"{torn")
        code, _out, err = run_cli(capsys, ["cache", "verify", "--dir", cache_dir])
        assert code == 1
        assert key in err
        code, _out, _err = run_cli(
            capsys, ["cache", "verify", "--dir", cache_dir, "--delete"]
        )
        assert code == 0
        assert not os.path.exists(path)

    def test_gc(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        self._warm(capsys, cache_dir)
        code, out, _err = run_cli(
            capsys, ["cache", "gc", "--dir", cache_dir, "--max-bytes", "0"]
        )
        assert code == 0
        assert "evicted" in out
        assert ResultCache(cache_dir).stats()["entries"] == 0


class TestObservabilityIntegrations:
    def test_trace_validate_stats_shows_cache_traffic(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        run_cli(
            capsys,
            [
                "fault-sweep", "--quick", "--trace", trace,
                "--cache", str(tmp_path / "c"),
            ],
        )
        code, out, _err = run_cli(capsys, ["trace-validate", trace, "--stats"])
        assert code == 0
        assert "hits=0 misses=1" in out

    def test_dash_cache_panel(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        run_cli(capsys, ["exhaustive", "--n", "4", "--cache", cache_dir])
        out = str(tmp_path / "dash.html")
        code, _out, _err = run_cli(
            capsys,
            [
                "dash", "--dir", str(tmp_path), "--cache", cache_dir,
                "--out", out, "--timestamp", "pinned",
            ],
        )
        assert code == 0
        html = open(out, encoding="utf-8").read()
        assert "Result cache" in html
        assert "entries[exhaustive]" in html

    def test_bench_history_records_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [
            "bench", "--quick", "--only", "simulator",
            "--out-dir", str(tmp_path), "--history",
        ]
        assert run_cli(capsys, argv)[0] == 0
        record = json.loads(
            open(tmp_path / "BENCH_HISTORY.jsonl", encoding="utf-8").readline()
        )
        assert record["cache"] == "off"  # harness default: cache-disabled
        assert run_cli(capsys, argv + ["--cache", str(tmp_path / "c")])[0] == 0
        lines = open(tmp_path / "BENCH_HISTORY.jsonl", encoding="utf-8").readlines()
        assert json.loads(lines[-1])["cache"] == "on"
