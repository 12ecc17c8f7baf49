"""``exhaustive --n 7 --json`` stdout is pinned byte for byte.

The golden file pins the pure-python scanner's report (``--workers 1``
is the default); any change to the pair table, the scorer or the report
shows up as a diff here.
"""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_exhaustive_n7_matches_golden(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["exhaustive", "--n", "7", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "exhaustive_n7.json").read_text()
