"""Budget-stopped exhaustive searches are pinned byte for byte.

For caps at and around the shard boundaries of n = 7 (256 assignments
per shard, 2,187 in all) the golden file holds the CLI's ``--json``
stdout and exit code, and the population sketch states of the same
search through the API. Any change to the scan order, the budget ticks,
the tie-break or the scores shows up as a diff here, at every worker
count.

Rewrite the golden with ``PYTHONPATH=src python
tests/lowerbounds/test_exhaustive_partials_golden.py`` and review the
diff.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import BudgetExceededError
from repro.lowerbounds import universal_bound_id_oblivious
from repro.resilience import Budget

GOLDEN = Path(__file__).parent / "golden" / "exhaustive_n7_partials.json"
CAPS = (255, 256, 257, 2186, 2187, 2188)


def _population(cap, workers):
    try:
        report = universal_bound_id_oblivious(
            7, workers=workers, budget=Budget(max_units=cap), population=True
        )
    except BudgetExceededError as exc:
        report = exc.partial
    return json.dumps(report.population, sort_keys=True)


def _cli(cap, workers, capsys):
    code = main(
        ["exhaustive", "--n", "7", "--max-assignments", str(cap),
         "--workers", str(workers), "--json"]
    )
    return code, capsys.readouterr().out


def _golden():
    return {row["cap"]: row for row in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("cap", CAPS)
def test_partial_matches_golden(cap, workers, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    row = _golden()[cap]
    code, out = _cli(cap, workers, capsys)
    assert (code, out) == (row["exit"], row["stdout"])
    assert _population(cap, workers) == row["population"]


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.environ.pop("REPRO_CACHE_DIR", None)
    rows = []
    for cap in CAPS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["exhaustive", "--n", "7", "--max-assignments", str(cap), "--json"]
            )
        rows.append(
            {"cap": cap, "exit": code, "stdout": buffer.getvalue(),
             "population": _population(cap, 1)}
        )
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
