"""The CLI surface, pinned: parser structure, stdout, stderr and exit codes.

``golden/cli_parser.json`` records every action of every subcommand (and
of every ``cache`` action) structurally -- option strings, dest,
default, type name, choices, nargs, const, required, metavar and help --
rather than as rendered ``--help`` text, which differs between Python
versions. ``golden/cli_outputs.json`` records, per case, the argv, the
exit code and the exact stdout and stderr: ``--json`` tables at small
sizes, the four engine kinds cold and then warm under ``--cache``, and
the exit-3 partials of ``exhaustive --max-assignments`` and ``sampling
--max-samples`` followed by the resume.

Every ``--json`` stdout is parsed with a ``parse_constant`` that raises,
so a ``NaN`` or ``Infinity`` cannot pass as JSON.

To rewrite both files after an intended change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import argparse
import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
PARSER_GOLDEN = GOLDEN / "cli_parser.json"
OUTPUTS_GOLDEN = GOLDEN / "cli_outputs.json"

#: One small ``--json`` request per experiment (``list`` has no --json).
STDOUT_CASES = {
    "list": ["list"],
    "crossing": ["crossing", "--n", "8", "--rounds", "2", "--json"],
    "star": ["star", "--n", "12", "--rounds", "2", "--json"],
    "forced-error": ["forced-error", "--n", "4", "--rounds", "1", "--json"],
    "ratio": ["ratio", "--max-exp", "4", "--json"],
    "ranks": ["ranks", "--max-n", "4", "--json"],
    "reduction": ["reduction", "--n", "6", "--seed", "3", "--json"],
    "information": ["information", "--n", "4", "--eps", "0.2", "--json"],
    "upper-bounds": ["upper-bounds", "--n", "16", "--json"],
    "all": ["all", "--json"],
    "exhaustive": ["exhaustive", "--n", "5", "--json"],
    "sampling": ["sampling", "--n", "5", "--samples", "200", "--seed", "3", "--json"],
    "fault-sweep": ["fault-sweep", "--quick", "--json"],
    "cost-check": ["cost-check", "--quick", "--json"],
    # the engine kinds' ASCII tables
    "ranks-text": ["ranks", "--max-n", "3"],
    "exhaustive-text": ["exhaustive", "--n", "4"],
    "sampling-text": ["sampling", "--n", "4", "--samples", "100", "--seed", "1"],
    "fault-sweep-text": [
        "fault-sweep", "--n", "6", "--trials", "1", "--rates", "0.0", "0.2",
        "--algorithms", "flooding", "--kinds", "erasure",
    ],
}

ENGINE_KINDS = ("exhaustive", "sampling", "ranks", "fault-sweep")

#: Budget-stopped requests: the partial table, exit 3, then the resume.
BUDGET_CASES = {
    "exhaustive-budget": ["exhaustive", "--n", "6", "--max-assignments", "300"],
    "sampling-budget": [
        "sampling", "--n", "5", "--samples", "1200", "--seed", "2",
        "--max-samples", "600", "--json",
    ],
}

CACHE_PLACEHOLDER = "<CACHE>"


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name} in --json output")


def _check_json(argv, stdout):
    if "--json" in argv:
        for line in stdout.splitlines():
            json.loads(line, parse_constant=_no_constants)


def _backend_neutral(stdout):
    """cost-check names its backend, which depends on whether sympy is
    installed; the CI legs differ there on purpose."""
    for text in ("sympy cross-check on", "exact backend only"):
        stdout = stdout.replace(text, "<backend>")
    return stdout.replace('"sympy+exact"', '"exact"')


def _run(capsys, argv, cache_dir=None):
    code = main(list(argv))
    captured = capsys.readouterr()
    _check_json(argv, captured.out)
    out, err = captured.out, captured.err
    if cache_dir is not None:
        out = out.replace(cache_dir, CACHE_PLACEHOLDER)
        err = err.replace(cache_dir, CACHE_PLACEHOLDER)
    if argv[0] == "cost-check":
        out = _backend_neutral(out)
    return {"argv": list(argv), "code": code, "stdout": out, "stderr": err}


def _jsonable(value):
    try:
        json.dumps(value)
    except TypeError:
        return repr(value)
    return value


def _action(action):
    choices = action.choices
    if isinstance(choices, dict):
        choices = list(choices)
    elif choices is not None:
        choices = list(choices)
    kind = action.type
    return {
        "class": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "type": None if kind is None else getattr(kind, "__name__", repr(kind)),
        "choices": choices,
        "nargs": action.nargs,
        "const": _jsonable(action.const),
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def _parser(parser):
    record = {
        "prog": parser.prog,
        "description": parser.description,
        "actions": [_action(a) for a in parser._actions],
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            record["subcommands"] = [
                {"name": name, "help": helps.get(name), **_parser(sub)}
                for name, sub in action.choices.items()
            ]
    return record


def parser_snapshot():
    return _parser(build_parser())


def outputs_snapshot(capsys, tmp_path):
    cases = {}
    for case, argv in STDOUT_CASES.items():
        cases[case] = _run(capsys, argv)
    for kind in ENGINE_KINDS:
        cache_dir = str(tmp_path / f"cache-{kind}")
        argv = STDOUT_CASES[kind] + ["--cache", cache_dir]
        cases[f"{kind}-cold"] = _run(capsys, argv, cache_dir)
        cases[f"{kind}-warm"] = _run(capsys, argv, cache_dir)
    for case, argv in BUDGET_CASES.items():
        cases[case] = _run(capsys, argv)
        cache_dir = str(tmp_path / f"cache-{case}")
        cached = argv + ["--cache", cache_dir]
        cases[f"{case}-cached"] = _run(capsys, cached, cache_dir)
        cap = cached.index("--max-assignments" if "exhaustive" in argv else "--max-samples")
        resumed = cached[:cap] + cached[cap + 2:]
        cases[f"{case}-resumed"] = _run(capsys, resumed, cache_dir)
    return cases


def _stored_argv(case):
    return [CACHE_PLACEHOLDER if a.startswith(os.sep) else a for a in case["argv"]]


@pytest.fixture
def no_env_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def test_parser_structure_matches_golden():
    assert parser_snapshot() == json.loads(PARSER_GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_outputs():
    return json.loads(OUTPUTS_GOLDEN.read_text())


def test_golden_covers_every_subcommand(golden_outputs):
    names = {sub["name"] for sub in json.loads(PARSER_GOLDEN.read_text())["subcommands"]}
    listed = golden_outputs["list"]["stdout"].splitlines()[1:]
    assert {line.split()[0] for line in listed} == names - {"list"}


@pytest.mark.usefixtures("no_env_cache")
def test_outputs_match_golden(capsys, tmp_path, golden_outputs):
    actual = outputs_snapshot(capsys, tmp_path)
    assert list(actual) == list(golden_outputs)
    for case, expected in golden_outputs.items():
        got = dict(actual[case], argv=_stored_argv(actual[case]))
        assert got == expected, case


if __name__ == "__main__":  # pragma: no cover - rewrites the golden files
    import contextlib
    import io
    import sys
    import tempfile

    class _Capture:
        def __init__(self):
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            out, err = self.out.getvalue(), self.err.getvalue()
            self.out.seek(0), self.out.truncate()
            self.err.seek(0), self.err.truncate()
            return argparse.Namespace(out=out, err=err)

    os.environ.pop("REPRO_CACHE_DIR", None)
    capture = _Capture()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(capture.out), contextlib.redirect_stderr(capture.err):
            outputs = outputs_snapshot(capture, Path(tmp))
    for entry in outputs.values():
        entry["argv"] = _stored_argv(entry)
    GOLDEN.mkdir(exist_ok=True)
    PARSER_GOLDEN.write_text(json.dumps(parser_snapshot(), indent=1) + "\n")
    OUTPUTS_GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {PARSER_GOLDEN} and {OUTPUTS_GOLDEN}", file=sys.stderr)
