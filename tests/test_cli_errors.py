"""CLI error handling: clean exit codes, one-line messages, no tracebacks."""

import json

import pytest

from repro import cli
from repro.errors import InvalidInstanceError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUserErrorsExitTwo:
    def test_bad_sample_count(self, capsys):
        code, _out, err = _run(capsys, "sampling", "--samples", "1")
        assert code == 2
        assert err.startswith("error: ")

    def test_fault_sweep_n_too_small(self, capsys):
        code, _out, err = _run(capsys, "fault-sweep", "--n", "3", "--trials", "2")
        assert code == 2
        assert "n >= 6" in err

    def test_repro_error_from_experiment(self, capsys, monkeypatch):
        def _boom(_args):
            raise InvalidInstanceError("bad instance for the test")

        monkeypatch.setattr(cli, "_cmd_ratio", _boom)
        parser = cli.build_parser()
        args = parser.parse_args(["ratio"])
        args.func = _boom
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        code, _out, err = _run(capsys, "ratio")
        assert code == 2
        assert err == "error: bad instance for the test\n"

    @pytest.mark.parametrize("rate", ["-0.5", "nan", "inf", "1.5"])
    def test_fault_sweep_rate_outside_unit_interval(self, capsys, rate):
        code, out, err = _run(
            capsys, "fault-sweep", "--n", "6", "--trials", "1", "--algorithms",
            "flooding", "--kinds", "erasure", "--rates", "0.0", rate, "--json",
        )
        assert (code, out) == (2, "")
        assert err == f"error: fault rates must be in [0, 1], got {float(rate)}\n"

    @pytest.mark.parametrize("command", ["sampling", "record"])
    @pytest.mark.parametrize("eps", ["-0.5", "nan", "1.0"])
    def test_sampling_eps_outside_unit_interval(self, capsys, tmp_path, command, eps):
        argv = ["sampling", "--n", "4", "--samples", "50", "--eps", eps]
        if command == "record":
            argv = ["record", "--session", str(tmp_path / "s.jsonl")] + argv
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: error_rate must be in [0, 1), got {float(eps)}\n"

    def test_unknown_subcommand_still_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["no-such-command"])
        assert exc_info.value.code == 2


class TestInterruptExits130:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        parser = cli.build_parser()
        args = parser.parse_args(["ratio"])

        def _interrupt(_args):
            raise KeyboardInterrupt

        args.func = _interrupt
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        code, _out, err = _run(capsys, "ratio")
        assert code == 130
        assert err == "interrupted\n"

    def test_interrupt_mid_exhaustive_names_checkpoint(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "ck")

        def _fake_search(*_a, **kwargs):
            # completed shards are already in the cache when Ctrl-C lands
            assert kwargs["shard_cache"] is not None
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.lowerbounds.exhaustive.universal_bound_id_oblivious", _fake_search
        )
        code, _out, err = _run(capsys, "exhaustive", "--checkpoint", path)
        assert code == 130
        assert err == (
            "interrupted; re-run the same command "
            f"(completed shards are cached in {path})\n"
        )


class TestBudgetExitsThree:
    def test_exhaustive_budget_prints_partial(self, capsys, tmp_path):
        path = str(tmp_path / "ck")
        code, out, err = _run(
            capsys,
            "exhaustive",
            "--n",
            "6",
            "--max-assignments",
            "100",
            "--checkpoint",
            path,
            "--json",
        )
        assert code == 3
        assert "budget exhausted" in err
        assert f"re-run the same command (completed shards are cached in {path})" in err
        payload = json.loads(out)
        assert payload["rows"][0][-1] == "partial (budget exhausted)"

    def test_budget_then_resume_completes(self, capsys, tmp_path):
        path = str(tmp_path / "ck")
        code, _out, _err = _run(
            capsys, "exhaustive", "--max-assignments", "500", "--checkpoint", path
        )
        assert code == 3
        code, out, err = _run(capsys, "exhaustive", "--resume", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0][-1] == "complete"
        # the two shards the budgeted run completed are served from the cache
        assert "cache: hits=2 misses=2" in err
        # the resumed minimum matches a fresh uninterrupted run
        code, fresh_out, _err = _run(capsys, "exhaustive", "--json")
        assert json.loads(fresh_out)["rows"][0][:5] == payload["rows"][0][:5]


    def test_resume_from_missing_dir_starts_fresh(self, capsys, tmp_path):
        # --resume names the cache; an empty or absent one is a cold run
        code, out, err = _run(
            capsys, "exhaustive", "--resume", str(tmp_path / "absent"), "--json"
        )
        assert code == 0
        assert json.loads(out)["rows"][0][-1] == "complete"
        assert "cache: hits=0" in err


class TestNewSubcommandSmoke:
    def test_sampling_json(self, capsys):
        code, out, _err = _run(
            capsys, "sampling", "--n", "4", "--samples", "50", "--seed", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0][1] == 50

    def test_fault_sweep_quick_with_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        code, _out, _err = _run(
            capsys, "fault-sweep", "--quick", "--out", str(out_file), "--json"
        )
        assert code == 0
        from repro.resilience import validate_fault_sweep_payload

        payload = json.loads(out_file.read_text())
        assert validate_fault_sweep_payload(payload) == []
