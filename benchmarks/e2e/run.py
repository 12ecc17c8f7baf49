"""End-to-end benchmark of the ``repro.cli`` command line.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cli_light --seed 0 --seconds 20 --trace 0
    python -m benchmarks.e2e.run --seed 0              # all four workloads
    python -m benchmarks.e2e.run --seed 0 --traced     # the per-layer split
    python -m benchmarks.e2e.run --smoke               # 2 requests per workload

One client runs a workload's seeded request list as a closed loop: each
request is a real ``python -m repro.cli ... `` subprocess, started only
after the previous one has been reaped, and the list is cycled until
``--seconds`` have passed. Requests take at most 2 pool workers
(``--workers 2``). Children get ``PYTHONPATH=<checkout>/src`` and run in
a fresh directory under ``<checkout>/.e2e_work``. Before the loop, an
untimed set-up makes fresh directories and runs one smallest-size
warm-up per distinct subcommand; it is repeated and its median is
``setup_s``.

The host's speed drifts, by seconds and over minutes, so the loop also
runs a fixed *reference* process (``python -I -c "import numpy, sympy"``,
which runs no code of the repository) between requests, about one
second of it for every four seconds of requests. Each request's wall
and CPU time are divided by the mean of the reference runs just before
and just after it, and the time metrics are given in that unit
(``ref``). The seconds they come from are in the result file.

Every output is checked (see ``checks.py``). The runner prints each
metric with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 1``
(or ``--traced``) reports the per-layer metrics instead: it replays the
list alternating plain requests with requests run under
``traced_main.py``, which times each layer from outside the program.
Result files go to ``--out`` (default ``<checkout>/.e2e_out``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import checks, workloads  # noqa: E402

SRC = ROOT / "src"
TRACED_MAIN = Path(__file__).resolve().parent / "traced_main.py"
WORK = ROOT / ".e2e_work"
DEFAULT_OUT = ROOT / ".e2e_out"

SECONDS = 20
SETUP_REPS = 3
SMOKE_REQUESTS = 2
REQUEST_TIMEOUT_S = 120
INTERP_PROBES = 5
CLOSURE_TOLERANCE = 0.10
PERCENTILES = (50, 75, 90, 95, 99)

# The reference process: the interpreter start and third-party imports
# every request also pays, and nothing of the repository (-I ignores
# PYTHONPATH), so no change to the program can move it. It gets this
# share of the loop's request time.
REFERENCE = (sys.executable, "-I", "-c", "import numpy, sympy")
REFERENCE_SHARE = 0.25

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_p75_ref": "ref",
    "throughput_per_ref": "1/ref",
    "cpu_per_req_ref": "ref_cpu",
    "peak_rss_mb": "MB",
}

# Timer layers of traced_main.py, grouped into the layers whose share of
# the traced request wall is reported. "cli" also takes the time before
# and after repro.cli.main (interpreter start, imports, exit).
LAYERS = {
    "cli": ("cli.main",),
    "engine": ("engine",),
    "cache": ("cache.fingerprint", "cache.key", "cache.get", "cache.put"),
    "parallel": ("parallel.map",),
    "lowerbounds": ("lowerbounds.search",),
    "information": ("information.estimate",),
    "partitions": ("partitions.build", "partitions.rank"),
    "simulator": ("simulator.run",),
    "resilience": ("resilience.sweep",),
}

# timer layer -> (self-seconds metric, call-count metric or None)
FRAME_METRICS = {
    "cli.main": ("cli.main_self_s", None),
    "engine": ("engine.self_s", "engine.calls"),
    "cache.fingerprint": ("cache.fingerprint_s", None),
    "cache.key": ("cache.key_s", None),
    "cache.get": ("cache.get_s", None),
    "cache.put": ("cache.put_s", None),
    "parallel.map": ("parallel.map_s", "parallel.map_calls"),
    "lowerbounds.search": ("lowerbounds.search_s", None),
    "information.estimate": ("information.estimate_s", None),
    "partitions.build": ("partitions.build_s", None),
    "partitions.rank": ("partitions.rank_s", None),
    "simulator.run": ("simulator.run_s", "simulator.runs"),
    "resilience.sweep": ("resilience.sweep_self_s", None),
}

# metric -> the program's own spans that make it up (seconds per request)
SPAN_METRICS = {
    "exhaustive.precompute_pairs_s": ("exhaustive.precompute_pairs",),
    "exhaustive.scan_s": (
        "exhaustive.enumerate", "exhaustive.scan_vectorized", "exhaustive.scan_python",
    ),
    "sampling.draw_s": ("sampling.draw", "sampling.draw_inputs", "sampling.scan_shard"),
    "sampling.reduce_s": ("sampling.reduce",),
    "kernels.rank_mod_p_s": ("partitions.rank_mod_p", "partitions.streamed_rank_mod_p"),
    "parallel.shard_s": ("parallel.shard",),
    "simulator.broadcast_s": ("simulator.broadcast",),
    "simulator.deliver_s": ("simulator.deliver",),
}

# work counts (per traced request) -> the timer layer that makes them
COUNT_SOURCES = {
    "cache.hits": "cache.get",
    "cache.misses": "cache.get",
    "parallel.shards": "parallel.map",
    "resilience.cells": "resilience.sweep",
}

# The per-layer metrics of the result line: those with a value on every
# workload. Layers a workload never reaches show as counts and shares of
# 0 here; trace_<workload>.json carries every metric, with null for a
# timer or span that never fired.
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "cli.main_self_s": "s",
    "engine.self_s": "s",
    "cli.modules_loaded": "count",
    "engine.calls": "count/req",
    "cache.hits": "count/req",
    "cache.misses": "count/req",
    "cache.bytes_written": "bytes/req",
    "parallel.map_calls": "count/req",
    "parallel.shards": "count/req",
    "kernels.rank_calls": "count/req",
    "simulator.runs": "count/req",
    "resilience.cells": "count/req",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed request)."""


@dataclass
class Outcome:
    """One finished subprocess, timed on the ``time.perf_counter`` clock."""

    argv: workloads.Request
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def execute(cmd: Sequence[str], argv: workloads.Request, cwd: Path, env: Dict[str, str]) -> Outcome:
    """Run ``cmd`` to completion; CPU and peak RSS come from ``wait4``.

    ``wait4`` reports the child together with every descendant it
    reaped, so pool workers count toward CPU time and peak RSS.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(cmd), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(REQUEST_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            argv=argv,
            start=start,
            end=end,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def fill(argv: workloads.Request, cache: Path) -> List[str]:
    return [str(cache) if token == workloads.CACHE else token for token in argv]


def child_env(cwd: Path) -> Dict[str, str]:
    """The caller's environment, minus what would change what is measured.

    Bytecode caching is on even where the caller turned it off, as a user
    has it by default: the set-up's warm-ups fill ``src/**/__pycache__``,
    so timed requests do not recompile the program.
    """
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(cwd)
    return env


class Run:
    """One workload's directories: a cwd and fresh caches for each mode."""

    def __init__(self, base: Path, index: int) -> None:
        self.dir = base / f"run{index}"
        self.cache = self.dir / "cache"
        self.trace_cache = self.dir / "trace_cache"
        self.probe_cache = self.dir / "probe_cache"
        for path in (self.cache, self.trace_cache, self.probe_cache):
            path.mkdir(parents=True)
        self.env = child_env(self.dir)

    def cli(self, argv: workloads.Request, cache: Optional[Path] = None) -> Outcome:
        cmd = [sys.executable, "-m", "repro.cli", *fill(argv, cache or self.cache)]
        return execute(cmd, argv, self.dir, self.env)

    def traced(self, argv: workloads.Request, record: Path) -> Outcome:
        cmd = [sys.executable, str(TRACED_MAIN), str(record), *fill(argv, self.trace_cache)]
        return execute(cmd, argv, self.dir, self.env)

    def reference(self) -> Outcome:
        outcome = execute(REFERENCE, ("reference",), self.dir, self.env)
        if outcome.returncode != 0:
            raise BenchError(
                f"the reference process exited {outcome.returncode}: "
                f"{outcome.stderr.strip()[-400:]}"
            )
        return outcome


def set_up(reqs: Sequence[workloads.Request], base: Path, reps: int) -> Tuple[List[float], Run]:
    """Fresh directories plus one warm-up per subcommand, ``reps`` times."""
    times: List[float] = []
    run: Optional[Run] = None
    for index in range(reps):
        if run is not None:
            shutil.rmtree(run.dir)
        start = time.perf_counter()
        run = Run(base, index)
        for argv in workloads.warmups(reqs):
            outcome = run.cli(argv, run.probe_cache)
            if outcome.returncode != 0:
                raise BenchError(
                    f"warm-up {' '.join(argv)} exited {outcome.returncode}: "
                    f"{outcome.stderr.strip()[-400:]}"
                )
        times.append(time.perf_counter() - start)
    return times, run


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile, interpolating linearly between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(xs) - 1)
    return xs[low] + (xs[high] - xs[low]) * (pos - low)


def tail_percentile(n: int) -> Optional[int]:
    """The highest reported percentile with at least ten samples beyond it."""
    eligible = [q for q in PERCENTILES if n * (100 - q) / 100.0 >= 10]
    return max(eligible) if eligible else None


def seconds_metrics(outcomes: Sequence[Outcome], loop_s: float) -> Dict[str, float]:
    """The loop's times as measured: seconds, requests per second."""
    walls = [o.wall_s for o in outcomes]
    return {
        "latency_p50_s": percentile(walls, 50),
        "latency_p75_s": percentile(walls, 75),
        "throughput_rps": len(outcomes) / loop_s,
        "cpu_s_per_req": statistics.fmean(o.cpu_s for o in outcomes),
    }


def end_to_end(
    setup_times: Sequence[float],
    outcomes: Sequence[Outcome],
    brackets: Sequence[Sequence[Outcome]],
) -> Dict[str, float]:
    """The end-to-end metrics, times in units of the reference.

    ``brackets[i]`` holds the reference runs just before and just after
    request ``i``; the request's wall and CPU time are divided by their
    means. Throughput is requests per reference-duration of request
    time, the closed loop's one client never being idle between them.
    """
    pairs = list(zip(outcomes, brackets))
    walls = [o.wall_s / statistics.fmean(r.wall_s for r in bracket) for o, bracket in pairs]
    cpus = [o.cpu_s / statistics.fmean(r.cpu_s for r in bracket) for o, bracket in pairs]
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ref": percentile(walls, 50),
        "latency_p75_ref": percentile(walls, 75),
        "throughput_per_ref": len(walls) / sum(walls),
        "cpu_per_req_ref": statistics.fmean(cpus),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------
def parse_importtime(text: str) -> Tuple[float, float]:
    """(top-level import seconds, sympy import seconds) from ``-X importtime``."""
    total = 0
    sympy = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2]
        if len(name) - len(name.lstrip()) == 1:
            total += cumulative
        if name.strip() == "sympy":
            sympy = cumulative
    return total / 1e6, sympy / 1e6


def probe(run: Run, reqs: Sequence[workloads.Request]) -> Dict[str, Any]:
    """Bare interpreter wall, and import time per distinct subcommand."""
    bare = [sys.executable, "-c", "pass"]
    interp = statistics.median(
        execute(bare, ("-c",), run.dir, run.env).wall_s for _ in range(INTERP_PROBES)
    )
    baseline, _ = parse_importtime(
        execute([sys.executable, "-X", "importtime", "-c", "pass"], ("-c",), run.dir, run.env).stderr
    )
    imports: Dict[str, Tuple[float, float]] = {}
    for argv in reqs:
        if argv[0] in imports:
            continue
        cmd = [sys.executable, "-X", "importtime", "-m", "repro.cli", *fill(argv, run.probe_cache)]
        total, sympy = parse_importtime(execute(cmd, argv, run.dir, run.env).stderr)
        imports[argv[0]] = (total - baseline, sympy)
    return {"interp_s": interp, "imports": imports}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(
    pairs: Sequence[Tuple[Outcome, Outcome, Dict[str, Any]]],
    probes: Dict[str, Any],
    cache_bytes: int,
) -> Tuple[Dict[str, Optional[float]], List[Dict[str, Any]], List[str]]:
    """Per-layer metrics (None where a timer or span never fired), rows, warnings."""
    n = len(pairs)
    frames: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    spans: Dict[str, List[float]] = {}
    group_s = {layer: 0.0 for layer in LAYERS}
    rows: List[Dict[str, Any]] = []
    warnings: List[str] = []
    wall_total = 0.0
    for _plain, traced, record in pairs:
        pre_main = record["main_start"] - traced.start
        teardown = traced.end - record["main_end"]
        if pre_main < 0 or teardown < 0:
            warnings.append(f"{' '.join(traced.argv)}: main() lies outside the request wall")
        startup = pre_main + teardown
        self_s = {layer: values[0] for layer, values in record["frames"].items()}
        for layer, (seconds, calls) in record["frames"].items():
            total = frames.setdefault(layer, [0.0, 0])
            total[0] += seconds
            total[1] += calls
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, (count, seconds) in record["spans"].items():
            total = spans.setdefault(name, [0, 0.0])
            total[0] += count
            total[1] += seconds
        for layer, members in LAYERS.items():
            group_s[layer] += sum(self_s.get(m, 0.0) for m in members)
        group_s["cli"] += startup
        wall_total += traced.wall_s
        rows.append({
            "argv": list(traced.argv),
            "wall_s": traced.wall_s,
            "startup_s": startup,
            "pre_main_s": pre_main,
            "teardown_s": teardown,
            "closure": (sum(self_s.values()) + startup) / traced.wall_s,
            "modules_loaded": record["modules_loaded"],
            "self_s": self_s,
        })

    metrics: Dict[str, Optional[float]] = {}
    imports = probes["imports"]
    metrics["cli.interp_s"] = probes["interp_s"]
    metrics["cli.import_s"] = statistics.fmean(imports[t.argv[0]][0] for _, t, _ in pairs)
    metrics["cli.import_sympy_s"] = statistics.fmean(imports[t.argv[0]][1] for _, t, _ in pairs)
    metrics["cli.modules_loaded"] = statistics.fmean(r["modules_loaded"] for r in rows)
    for part in ("startup_s", "pre_main_s", "teardown_s"):
        metrics[f"cli.{part}"] = statistics.fmean(r[part] for r in rows)
    for layer, (seconds_metric, calls_metric) in FRAME_METRICS.items():
        seconds, calls = frames.get(layer, (0.0, 0))
        metrics[seconds_metric] = seconds / n if calls else None
        if calls_metric is not None:
            metrics[calls_metric] = calls / n if calls else None
    for name, source in COUNT_SOURCES.items():
        metrics[name] = counts.get(name, 0) / n if source in frames else None
    lookups = (metrics["cache.hits"] or 0) + (metrics["cache.misses"] or 0)
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else None
    metrics["cache.bytes_written"] = cache_bytes / n if "cache.put" in frames else None
    for name, members in SPAN_METRICS.items():
        fired = [spans[m] for m in members if m in spans]
        metrics[name] = sum(s[1] for s in fired) / n if fired else None
    rank_spans = [spans[m][0] for m in SPAN_METRICS["kernels.rank_mod_p_s"] if m in spans]
    metrics["kernels.rank_calls"] = sum(rank_spans) / n if rank_spans else None
    for layer in LAYERS:
        metrics[f"{layer}.share"] = group_s[layer] / wall_total
    plain_total = sum(p.wall_s for p, _, _ in pairs)
    metrics["trace.overhead_frac"] = wall_total / plain_total - 1.0
    metrics["trace.closure"] = statistics.fmean(r["closure"] for r in rows)
    for name, value in metrics.items():
        if value is None:
            warnings.append(f"{name}: its timer or span never fired")
    return metrics, rows, warnings


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _keep_going(done: int, limit: float, start: float, seconds: float, group: int) -> bool:
    """Whether to start request number ``done``; never stops inside a group."""
    return done < limit and (done % group != 0 or time.perf_counter() - start < seconds)


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool, base: Path
) -> Dict[str, Any]:
    """Set up, run the closed loop, check every output; returns the result."""
    env = environment()
    load_before = os.getloadavg()[0]
    reqs = workloads.requests(workload, seed)
    limit = SMOKE_REQUESTS if smoke else math.inf
    budget = math.inf if smoke else seconds
    group = workloads.GROUP.get(workload, 1)
    checker = checks.Checker()
    # A smoke run warms up only the subcommands of the requests it runs.
    setup_times, run = set_up(
        reqs[:SMOKE_REQUESTS] if smoke else reqs, base, 1 if smoke or traced else SETUP_REPS
    )

    def check(outcome: Outcome) -> bool:
        return checker.check(outcome.argv, outcome.returncode, outcome.stdout, outcome.stderr)

    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "mode": "traced" if traced else "untraced",
        "smoke": smoke,
        "requests_sha256": workloads.digest(reqs),
        "list_length": len(reqs),
        "environment": env,
    }
    if not traced:
        outcomes: List[Outcome] = []
        # Reference runs in loop order, in groups between requests; the
        # loop opens and closes with one, so every request has a group on
        # either side. before[i] is the group just before request i. A
        # smoke run, which only checks that everything runs, takes just
        # the opening one.
        groups: List[List[Outcome]] = []
        before: List[int] = []
        share = 0.0 if smoke else REFERENCE_SHARE
        start = time.perf_counter()
        groups.append([run.reference()])
        while _keep_going(len(outcomes), limit, start, budget, group):
            before.append(len(groups) - 1)
            outcomes.append(run.cli(reqs[len(outcomes) % len(reqs)]))
            fresh: List[Outcome] = []
            ref_s = sum(r.wall_s for g in groups for r in g)
            while ref_s < share * sum(o.wall_s for o in outcomes):
                fresh.append(run.reference())
                ref_s += fresh[-1].wall_s
            if fresh:
                groups.append(fresh)
        if not smoke:
            groups.append([run.reference()])
        refs = [r for g in groups for r in g]
        loop_s = time.perf_counter() - start - sum(r.wall_s for r in refs)
        for outcome in outcomes:
            check(outcome)
        brackets = [[r for g in groups[i:i + 2] for r in g] for i in before]
        metrics = end_to_end(setup_times, outcomes, brackets)
        units = END_TO_END
        result.update(
            unnormalized=seconds_metrics(outcomes, loop_s),
            reference_wall_s=statistics.median(r.wall_s for r in refs),
            reference_samples=[{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in refs],
            setup_samples_s=setup_times,
            latency_samples=len(outcomes),
            tail_percentile=tail_percentile(len(outcomes)),
            requests=[
                {"argv": list(o.argv), "wall_s": o.wall_s, "cpu_s": o.cpu_s,
                 "rss_mb": o.rss_mb, "returncode": o.returncode,
                 "reference_wall_s": statistics.fmean(r.wall_s for r in bracket)}
                for o, bracket in zip(outcomes, brackets)
            ],
        )
    else:
        probes = probe(run, reqs)
        pairs: List[Tuple[Outcome, Outcome, Dict[str, Any]]] = []
        records = run.dir / "records"
        records.mkdir()
        start = time.perf_counter()
        index = 0
        while _keep_going(index, limit, start, budget, group):
            argv = reqs[index % len(reqs)]
            record = records / f"{index}.json"
            # Alternate which of the two runs goes first, so neither one
            # always finds the other's page cache warm.
            if index % 2:
                traced_outcome, plain = run.traced(argv, record), run.cli(argv)
            else:
                plain, traced_outcome = run.cli(argv), run.traced(argv, record)
            index += 1
            check(plain)
            if not check(traced_outcome):
                continue
            try:
                pairs.append((plain, traced_outcome, json.loads(record.read_text())))
            except (OSError, ValueError):
                checker.fail(argv, "the traced run wrote no record")
        if not pairs:
            raise BenchError("no traced request completed")
        all_metrics, rows, warnings = layer_metrics(pairs, probes, _tree_bytes(run.trace_cache))
        closure = all_metrics["trace.closure"]
        if abs(closure - 1.0) > CLOSURE_TOLERANCE:
            warnings.append(f"layer self times + startup cover {closure:.3f} of the request wall")
        for warning in warnings:
            print(f"warning: {workload}: {warning}", file=sys.stderr)
        metrics = {name: all_metrics[name] or 0 for name in PER_LAYER}
        units = PER_LAYER
        result.update(
            probes=probes,
            layers=all_metrics,
            warnings=warnings,
            requests=rows,
        )
    load_after = os.getloadavg()[0]
    result.update(
        attempted=checker.checked,
        failed=checker.failed,
        failed_frac=checker.failed / checker.checked if checker.checked else 0.0,
        first_failure=checker.first_failure,
        float_order_differences=checker.float_order_differences,
        load_avg_1m=[load_before, load_after],
        noisy=max(load_before, load_after) > env["nproc"],
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
    )
    shutil.rmtree(run.dir)
    return result


def report(result: Dict[str, Any]) -> None:
    """The human-readable block for one workload."""
    print(
        f"== {result['workload']} ({result['mode']}, seed {result['seed']}): "
        f"{result['attempted']} requests, list sha256 {result['requests_sha256'][:16]}"
        + (", NOISY" if result["noisy"] else "")
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<24} {metric['value']!r:>24} {metric['unit']}")
    if "unnormalized" in result:
        print(f"  {'reference_wall_s':<24} {result['reference_wall_s']!r:>24} s")
        for name, value in result["unnormalized"].items():
            print(f"  {name:<24} {value!r:>24} {'1/s' if name == 'throughput_rps' else 's'}")
    print(f"  {'failed_frac':<24} {result['failed_frac']!r:>24} ratio")
    if result["first_failure"] is not None:
        print(f"  first failure: {json.dumps(result['first_failure'])}")


def result_line(results: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The last stdout line; metric names get a workload prefix if several ran."""
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): metric
        for r in results
        for name, metric in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: Optional[Iterable[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help=f"length of the timed loop (default {SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics from a traced replay")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_REQUESTS} requests per workload, one set-up")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for the result files")
    return parser.parse_args(None if argv is None else list(argv))


def main(argv: Optional[Iterable[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running request is killed and
    # waited for, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC / 'repro' / 'cli.py'} not found: run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=WORK))
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, base)
            report(result)
            args.out.mkdir(parents=True, exist_ok=True)
            prefix = "trace_" if args.trace else ""
            (args.out / f"{prefix}{name}.json").write_text(json.dumps(result, indent=1) + "\n")
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
