"""``fault-sweep --n 8 --trials 2 --json`` stdout is pinned byte for byte.

These are the benchmark's request sizes. The per-cell fault counts pin
the alignment of the fault and channel RNG streams, and the per-cell
correctness pins every node's decision, so a change to the round engine
or the delivery pipeline that moves one draw shows up as a diff here,
at either worker count.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("seed", ["1", "5", "123"])
def test_fault_sweep_matches_golden(seed, workers, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    args = ["--n", "8", "--trials", "2", "--seed", seed, "--workers", workers]
    assert main(["fault-sweep", *args, "--json"]) == 0
    golden = GOLDEN / f"fault_sweep_n8_t2_seed{seed}.json"
    assert capsys.readouterr().out == golden.read_text()
