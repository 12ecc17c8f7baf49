"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import checks, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_workloads_are_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_spec_metrics_are_the_runner_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_spec_run_seconds_is_the_runner_default():
    assert SPEC["run_seconds"] == run.SECONDS


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names


def test_request_lists_are_pure_functions_of_the_seed():
    for workload in workloads.WORKLOADS:
        first, again = workloads.requests(workload, 3), workloads.requests(workload, 3)
        assert first == again
        assert workloads.digest(first) == workloads.digest(again)
    for workload in ("cli_light", "search_parallel", "fault_sweep"):
        assert workloads.requests(workload, 1) != workloads.requests(workload, 2)
    assert workloads.requests("ranks_dense", 1) == workloads.requests("ranks_dense", 2)


def test_list_shapes():
    lengths = {w: len(workloads.requests(w, 0)) for w in workloads.WORKLOADS}
    assert lengths == {"cli_light": 40, "search_parallel": 40, "ranks_dense": 8, "fault_sweep": 24}
    cli_light = workloads.requests("cli_light", 0)
    cached = [r for r in cli_light if workloads.CACHE in r]
    assert len(cached) == 20 and len(set(cached)) == 4
    search = workloads.requests("search_parallel", 0)
    by_key = {}
    for request in search:
        by_key.setdefault(checks.identity_key(request), []).append(request)
    sampling = [k for k in by_key if k[0] == "sampling"]
    assert len(sampling) == 14 and all(len(by_key[k]) == 2 for k in sampling)
    group = workloads.GROUP["search_parallel"]
    for i in range(0, len(search), group):
        first, second = search[i:i + group]
        assert first != second and checks.identity_key(first) == checks.identity_key(second)


def test_no_request_uses_more_workers_than_two():
    for workload in workloads.WORKLOADS:
        for request in workloads.requests(workload, 0):
            if "--workers" in request:
                assert int(request[request.index("--workers") + 1]) <= 2


def test_warmups_cover_every_subcommand_once():
    reqs = workloads.requests("cli_light", 0)
    warm = workloads.warmups(reqs)
    assert sorted(w[0] for w in warm) == sorted({r[0] for r in reqs})
    assert all(workloads.CACHE in w for w in warm if w[0] in ("exhaustive", "ranks"))


def test_tail_percentile_rule():
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0
    assert run.percentile([7.0], 75) == 7.0


def _outcome(wall_s, cpu_s, rss_mb=50.0):
    return run.Outcome(("list",), 0.0, wall_s, cpu_s, rss_mb, 0, "", "")


def test_each_request_is_timed_in_units_of_its_bracketing_references():
    # The host runs at half speed during the second request: the
    # references around it take twice as long, and its ratio is unmoved.
    outcomes = [_outcome(1.0, 0.5, 60.0), _outcome(2.0, 1.0, 70.0), _outcome(1.0, 0.5, 65.0)]
    brackets = [
        [_outcome(0.5, 0.25), _outcome(0.5, 0.25)],
        [_outcome(0.8, 0.4), _outcome(1.2, 0.6)],
        [_outcome(0.4, 0.2), _outcome(0.6, 0.3)],
    ]
    metrics = run.end_to_end([1.0, 3.0, 2.0], outcomes, brackets)
    assert metrics == {
        "setup_s": 2.0,
        "latency_p50_ref": 2.0,
        "latency_p75_ref": 2.0,
        "throughput_per_ref": 0.5,
        "cpu_per_req_ref": 2.0,
        "peak_rss_mb": 70.0,
    }
    assert set(metrics) == set(run.END_TO_END)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |       1300 | site",
        "import time:      1000 |       1000 |       sympy",
        "import time:        50 |       2050 | repro.cli",
        "error: not an import line",
    ])
    assert run.parse_importtime(text) == (3350 / 1e6, 1000 / 1e6)


def _ranks_stdout(rows):
    return json.dumps({"title": "ranks", "headers": [], "rows": rows})


def test_corrupted_ranks_payload_is_a_failure():
    argv = ("ranks", "--max-n", "3", "--json")
    good = _ranks_stdout([["M", 3, 5, 5], ["E", 4, 3, 3]])
    assert checks.Checker().check(argv, 0, good)
    for rows in ([["M", 3, 4, 5]], [["M", 3, 4, 4]], [["E", 4, 3, 15]]):
        checker = checks.Checker()
        assert not checker.check(argv, 0, _ranks_stdout(rows))
        assert checker.failed == 1 and "rank" in checker.first_failure["problem"]


def test_warm_stdout_differing_from_cold_is_a_failure():
    argv = ("exhaustive", "--n", "5", "--cache", workloads.CACHE, "--json")
    row = [5, 243, 0.0, False, "-----", "complete"]
    cold = json.dumps({"title": "t", "headers": [], "rows": [row]})
    warm = json.dumps({"title": "t", "headers": [], "rows": [row[:2] + [0.5] + row[3:]]})
    checker = checks.Checker()
    assert checker.check(argv, 0, cold)
    assert checker.check(argv, 0, cold)
    assert not checker.check(argv, 0, warm)
    assert (checker.checked, checker.failed) == (3, 1)
    assert "stdout differs" in checker.first_failure["problem"]


def test_worker_counts_must_agree():
    row = [7, 2187, 0.0, False, "-------", "complete"]
    w1 = ("exhaustive", "--n", "7", "--workers", "1", "--json")
    w2 = ("exhaustive", "--n", "7", "--workers", "2", "--json")
    checker = checks.Checker()
    assert checker.check(w1, 0, json.dumps({"rows": [row]}))
    assert not checker.check(w2, 0, json.dumps({"rows": [row[:2] + [0.25] + row[3:]]}))


def test_sampling_worker_counts_agree_up_to_float_order_only():
    def stdout(info):
        return json.dumps({"rows": [[7, 8000, info, 9.6, 9.77, False, 0.0, "complete"]]})

    s1 = ("sampling", "--n", "7", "--samples", "8000", "--seed", "1", "--workers", "1", "--json")
    s2 = s1[:-2] + ("2", "--json")
    checker = checks.Checker()
    assert checker.check(s1, 0, stdout(9.694648807056732))
    assert checker.check(s2, 0, stdout(9.694648807056767))
    assert checker.float_order_differences == 1
    assert not checker.check(s1, 0, stdout(9.694648807056767))  # same argv: bytes
    assert not checker.check(s2, 0, stdout(9.7))


def test_paper_facts():
    assert [checks.bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert [checks.perfect_matchings(n) for n in (2, 4, 6, 8)] == [1, 3, 15, 105]
    assert checks.check_request(("list",), 1, "") == "exit code 1"
    fault = json.dumps({"rows": [["flooding", "crash", 0.0, 2, 1, 0.5, 0, 3.0]]})
    assert "rate 0" in checks.check_request(("fault-sweep", "--json"), 0, fault)
    star = json.dumps({"rows": [[12, 2, 4, 4, 6, 6, 0.1, 0.2]]})
    assert "floor" in checks.check_request(("star", "--json"), 0, star)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    return line


def test_traced_smoke_reports_every_per_layer_metric(tmp_path):
    line = _run("--workload", "fault_sweep", "--smoke", "--trace", "1", "--out", str(tmp_path))
    assert line["attempted"] == 4
    assert {n: m["unit"] for n, m in line["metrics"].items()} == run.PER_LAYER
    layers = json.loads((tmp_path / "trace_fault_sweep.json").read_text())["layers"]
    assert layers["simulator.runs"] == 120 and layers["cache.hits"] is None
    assert abs(layers["trace.closure"] - 1.0) <= run.CLOSURE_TOLERANCE


def test_smoke_run_finishes_quickly_and_passes(tmp_path):
    start = time.perf_counter()
    _run("--smoke", "--out", str(tmp_path))
    elapsed = time.perf_counter() - start
    for workload in workloads.WORKLOADS:
        result = json.loads((tmp_path / f"{workload}.json").read_text())
        assert result["failed_frac"] == 0.0
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
