"""``sampling --json`` stdout is pinned byte for byte.

The golden files fix the seeded draw (``random_partition``), the
protocol codec and the plug-in estimate together: a change to any of
them that moves one sample shows up as a diff here.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (
        ["--n", "7", "--samples", "8000", "--seed", "5"],
        "sampling_n7_samples8000_seed5.json",
    ),
    (
        ["--n", "6", "--samples", "3000", "--seed", "1", "--eps", "0.2"],
        "sampling_n6_samples3000_seed1_eps0.2.json",
    ),
]


@pytest.mark.parametrize("args,golden", CASES, ids=[name for _a, name in CASES])
def test_sampling_matches_golden(args, golden, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["sampling", *args, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
