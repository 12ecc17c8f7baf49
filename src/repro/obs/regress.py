"""Perf-regression tracking: a bench history store plus a detector.

``BENCH_<name>.json`` files are point-in-time records; this module gives
them a trajectory. Each :class:`~repro.obs.bench.BenchmarkHarness` run
can append **one line** to ``BENCH_HISTORY.jsonl`` -- git SHA, wall-clock
timestamp, schema version, quick/full flag, and the per-kernel wall
times -- and :func:`detect_regressions` compares the newest record
against a baseline window of earlier records using a median + MAD rule:

    a kernel regresses when its newest wall time exceeds
    ``threshold * median(baseline)`` (default 1.25x) **and**
    ``median + MAD_K * MAD`` (so a noisy kernel whose history already
    swings past the ratio gate does not false-positive),

with a min-sample guard (fewer than ``min_samples`` baseline points =>
``insufficient``, never ``regressed``). The same data renders a
markdown dashboard (``docs/PERF.md``) with a per-kernel sparkline of
ms/op across history.

Exposed through the CLI as ``repro bench --history``, ``repro compare
[--baseline REF.json] [--fail-on-regress]``, and wired into CI as a
soft (warn-only) gate so noisy shared runners cannot block merges.

History line format (schema version 1)::

    {"schema_version": 1, "ts": 1754464000.1, "git_sha": "61ddd73...",
     "quick": true, "workers": 1, "kernel": "auto",
     "entries": {"simulator": {"wall_time_seconds": 0.004, "ok": true,
                               "bits": 64, "rounds": 4},
                 ...}}

``workers`` (optional; absent = 1 on records written before the
parallel layer) is the harness fan-out the run used; baselines are
partitioned on it exactly like ``quick``. ``kernel`` (optional; absent
= "auto" on records written before the kernels layer) is the
compute-kernel mode (:data:`repro.kernels.KERNEL_MODES`) and partitions
baselines the same way -- a fast-engine wall time is speedup relative
to a reference-engine median, not a baseline for it.

``cache`` (optional; absent = "off" on records written before the
result cache) says whether the harness ran with a warm result cache
available (``repro bench --cache DIR``). Baselines are partitioned on
it exactly like ``quick`` -- a warm-cache wall time is a hash lookup,
not a baseline for a cold computation.

``bits`` / ``rounds`` (optional; absent on records written before the
cost ledger) are the :class:`~repro.costs.CostLedger` totals of the
harness run. Unlike wall time they are **deterministic** given the
(quick, workers, kernel) tuple, so the cost comparison is not a
median-and-MAD detector but a change detector: any difference from the
most recent same-tuple baseline is flagged (warn-only in CI -- an
intentional protocol change legitimately moves the number, and the
history line is the paper trail).

``rows`` (optional) is a result's ``measured["rows"]`` table copied
verbatim -- the ``kernels`` spec's rank-engine crossover rows, one
object per (matrix family, engine). The detector ignores it; it is
there so the table behind each rank-dispatch branch has a history.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import DEFAULT_HISTORY_PATH

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "RegressionFinding",
    "append_history",
    "current_git_sha",
    "detect_regressions",
    "history_record",
    "normalize_baseline",
    "read_history",
    "render_perf_dashboard",
    "sparkline",
    "validate_history_record",
]

#: Bump when the history line format changes incompatibly.
HISTORY_SCHEMA_VERSION = 1

#: How many MADs above the baseline median the absolute gate sits.
MAD_K = 3.0

_NUMERIC = (int, float)


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The repo HEAD SHA, or None outside a git checkout (never raises)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def history_record(
    results: Iterable[Any],
    quick: bool,
    git_sha: Optional[str] = None,
    ts: Optional[float] = None,
    workers: int = 1,
    kernel: str = "auto",
    cache: str = "off",
) -> Dict[str, Any]:
    """One appendable history line from a list of BenchmarkResults.

    ``results`` is anything with ``name`` / ``wall_time_seconds`` /
    ``ok`` attributes (duck-typed so tests can feed stubs).
    ``workers`` records the harness fan-out the run used; the detector
    partitions baselines on it (a 4-worker wall time is not comparable
    to a serial one). ``kernel`` records the compute-kernel mode and
    partitions baselines identically, as does ``cache`` ("on" when the
    harness had a result-cache directory). Results carrying a ``costs``
    mapping (a :meth:`~repro.costs.CostLedger.summary`) contribute
    ``bits`` / ``rounds`` columns, and results whose ``measured``
    mapping holds a ``rows`` list contribute it as ``rows``; stubs
    without either write wall-time entries exactly as before.
    """
    entries: Dict[str, Any] = {}
    for r in results:
        entry: Dict[str, Any] = {
            "wall_time_seconds": float(r.wall_time_seconds),
            "ok": bool(r.ok),
        }
        costs = getattr(r, "costs", None)
        if isinstance(costs, Mapping):
            bits = costs.get("total_bits")
            rounds = costs.get("rounds")
            if isinstance(bits, int) and not isinstance(bits, bool):
                entry["bits"] = bits
            if isinstance(rounds, int) and not isinstance(rounds, bool):
                entry["rounds"] = rounds
        measured = getattr(r, "measured", None)
        if isinstance(measured, Mapping) and isinstance(measured.get("rows"), list):
            entry["rows"] = measured["rows"]
        entries[r.name] = entry
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "ts": time.time() if ts is None else ts,
        "git_sha": git_sha,
        "quick": bool(quick),
        "workers": int(workers),
        "kernel": str(kernel),
        "cache": str(cache),
        "entries": entries,
    }


def append_history(record: Mapping[str, Any], path: str) -> None:
    """Append one record as a single JSONL line (validated first)."""
    problems = validate_history_record(record)
    if problems:  # a harness bug, not a user error -- fail loudly
        raise ValueError(f"refusing to append invalid history record: {problems}")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=False) + "\n")


def read_history(path: str, skip_torn_tail: bool = True) -> List[Dict[str, Any]]:
    """Parse a BENCH_HISTORY.jsonl file back into a list of records.

    Mirrors :func:`repro.obs.trace.read_trace`: appends are
    line-buffered, so a killed process can tear at most the final line,
    which is dropped by default; corruption earlier in the file raises.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle.read().splitlines()]
    lines = [line for line in lines if line]
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if skip_torn_tail and index == len(lines) - 1:
                break
            raise ValueError(
                f"history line {index + 1} is not valid JSON ({exc}); only "
                f"a torn final line is tolerated"
            ) from exc
    return records


def validate_history_record(record: Mapping[str, Any]) -> List[str]:
    """Return a list of schema violations for one record (empty = valid)."""
    problems: List[str] = []
    if not isinstance(record, Mapping):
        return [f"record is {type(record).__name__}, expected object"]
    version = record.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int):
        problems.append("missing integer schema_version")
    elif version > HISTORY_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{HISTORY_SCHEMA_VERSION}"
        )
    elif version < 1:
        problems.append("schema_version must be >= 1")
    if not isinstance(record.get("ts"), _NUMERIC):
        problems.append("missing numeric ts")
    sha = record.get("git_sha")
    if sha is not None and not isinstance(sha, str):
        problems.append("git_sha is neither null nor a string")
    if not isinstance(record.get("quick"), bool):
        problems.append("missing boolean quick")
    workers = record.get("workers", 1)  # absent in schema-v1 lines: serial
    if isinstance(workers, bool) or not isinstance(workers, int):
        problems.append("workers is not an integer")
    elif workers < 1:
        problems.append("workers must be >= 1")
    kernel = record.get("kernel", "auto")  # absent pre-kernels: auto
    if not isinstance(kernel, str) or not kernel:
        problems.append("kernel is not a non-empty string")
    cache = record.get("cache", "off")  # absent pre-cache: off
    if cache not in ("on", "off"):
        problems.append('cache is neither "on" nor "off"')
    entries = record.get("entries")
    if not isinstance(entries, Mapping):
        return problems + ["entries is not an object"]
    for name, entry in entries.items():
        if not isinstance(entry, Mapping):
            problems.append(f"entry {name!r} is not an object")
            continue
        wall = entry.get("wall_time_seconds")
        if isinstance(wall, bool) or not isinstance(wall, _NUMERIC):
            problems.append(f"entry {name!r} wall_time_seconds is not numeric")
        if not isinstance(entry.get("ok"), bool):
            problems.append(f"entry {name!r} missing boolean ok")
        for cost_field in ("bits", "rounds"):  # optional, pre-ledger lines omit
            if cost_field not in entry:
                continue
            value = entry[cost_field]
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"entry {name!r} {cost_field} is not an integer")
            elif value < 0:
                problems.append(f"entry {name!r} {cost_field} is negative")
        if "rows" in entry and not isinstance(entry["rows"], list):
            problems.append(f"entry {name!r} rows is not a list")
    return problems


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegressionFinding:
    """Verdict for one kernel: newest run vs its baseline window."""

    name: str
    latest_seconds: float
    baseline_samples: int
    baseline_median: Optional[float]  # None when no baseline exists
    baseline_mad: Optional[float]
    ratio: Optional[float]  # latest / median
    status: str  # "ok" | "regressed" | "improved" | "insufficient" | "new"
    #: Communication-cost columns (trailing defaults keep the positional
    #: seven-field construction older callers/tests use working). Bits
    #: are deterministic per (quick, workers, kernel), so the verdict is
    #: equality against the most recent same-tuple baseline value, not a
    #: statistical gate.
    latest_bits: Optional[int] = None
    baseline_bits: Optional[int] = None
    cost_status: str = "n/a"  # "n/a" | "new" | "same" | "changed"

    @property
    def regressed(self) -> bool:
        return self.status == "regressed"

    @property
    def cost_changed(self) -> bool:
        return self.cost_status == "changed"

    def cost_row(self) -> List[Any]:
        """A table row for the warn-only cost comparison."""
        return [
            self.name,
            "-" if self.latest_bits is None else self.latest_bits,
            "-" if self.baseline_bits is None else self.baseline_bits,
            self.cost_status.upper() if self.cost_changed else self.cost_status,
        ]

    def row(self) -> List[Any]:
        """A table row for the CLI (ms, not seconds)."""
        return [
            self.name,
            self.baseline_samples,
            "-" if self.baseline_median is None else self.baseline_median * 1e3,
            "-" if self.baseline_mad is None else self.baseline_mad * 1e3,
            self.latest_seconds * 1e3,
            "-" if self.ratio is None else round(self.ratio, 3),
            self.status.upper() if self.regressed else self.status,
        ]


def _series(
    baseline: Sequence[Mapping[str, Any]], name: str
) -> List[float]:
    out = []
    for record in baseline:
        entry = record.get("entries", {}).get(name)
        if isinstance(entry, Mapping) and isinstance(
            entry.get("wall_time_seconds"), _NUMERIC
        ):
            out.append(float(entry["wall_time_seconds"]))
    return out


def detect_regressions(
    history: Sequence[Mapping[str, Any]],
    threshold: float = 1.25,
    min_samples: int = 3,
    window: int = 20,
) -> List[RegressionFinding]:
    """Compare the newest history record against the earlier baseline.

    Baseline = the last ``window`` records before the newest whose
    ``quick`` flag, ``workers`` count, ``kernel`` mode **and** ``cache``
    flag match the newest's (quick and full runs are never compared
    against each other, nor are runs at different fan-outs, under
    different compute engines, or with/without a warm result cache -- a
    fast-kernel wall time beating a reference-engine median is
    speedup, not baseline, and a warm-cache time is a hash lookup;
    records predating the ``workers``/``kernel``/``cache`` fields count
    as serial/auto/off). Per
    benchmark, with ``m`` = baseline median and ``d`` = baseline MAD
    (median absolute deviation)::

        regressed   iff  latest > threshold * m  and  latest > m + MAD_K * d
        improved    iff  latest < m / threshold
        insufficient when the kernel has < min_samples baseline points

    The conjunction makes the gate robust in both directions: the ratio
    term scales with the kernel, the MAD term absorbs kernels whose
    baseline noise is already a large fraction of their median.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    if not history:
        return []
    newest = history[-1]
    quick = newest.get("quick")
    workers = newest.get("workers", 1)
    kernel = newest.get("kernel", "auto")
    cache = newest.get("cache", "off")
    baseline = [
        r
        for r in history[:-1]
        if r.get("quick") == quick
        and r.get("workers", 1) == workers
        and r.get("kernel", "auto") == kernel
        and r.get("cache", "off") == cache
    ][-window:]
    findings: List[RegressionFinding] = []
    for name, entry in sorted(newest.get("entries", {}).items()):
        if not isinstance(entry, Mapping):
            continue
        latest = entry.get("wall_time_seconds")
        if isinstance(latest, bool) or not isinstance(latest, _NUMERIC):
            continue
        latest = float(latest)
        latest_bits, baseline_bits, cost_status = _cost_verdict(
            entry, baseline, name
        )
        series = _series(baseline, name)
        if not series:
            findings.append(
                RegressionFinding(
                    name,
                    latest,
                    0,
                    None,
                    None,
                    None,
                    "new",
                    latest_bits=latest_bits,
                    baseline_bits=baseline_bits,
                    cost_status=cost_status,
                )
            )
            continue
        median = statistics.median(series)
        mad = statistics.median(abs(x - median) for x in series)
        ratio = latest / median if median > 0 else float("inf")
        if len(series) < min_samples:
            status = "insufficient"
        elif latest > threshold * median and latest > median + MAD_K * mad:
            status = "regressed"
        elif latest < median / threshold:
            status = "improved"
        else:
            status = "ok"
        findings.append(
            RegressionFinding(
                name,
                latest,
                len(series),
                median,
                mad,
                ratio,
                status,
                latest_bits=latest_bits,
                baseline_bits=baseline_bits,
                cost_status=cost_status,
            )
        )
    return findings


def _cost_verdict(
    entry: Mapping[str, Any],
    baseline: Sequence[Mapping[str, Any]],
    name: str,
) -> Tuple[Optional[int], Optional[int], str]:
    """(latest_bits, baseline_bits, cost_status) for one benchmark.

    Bits are deterministic per (quick, workers, kernel) tuple, so the
    comparison is equality against the **most recent** baseline record
    that carries a bits value -- no median, no threshold. ``n/a`` when
    the newest entry has no bits (pre-ledger stub or cost-free kernel),
    ``new`` when no baseline record carries one.
    """
    latest_bits = entry.get("bits")
    if isinstance(latest_bits, bool) or not isinstance(latest_bits, int):
        return None, None, "n/a"
    for record in reversed(baseline):
        candidate = record.get("entries", {}).get(name)
        if not isinstance(candidate, Mapping):
            continue
        bits = candidate.get("bits")
        if isinstance(bits, bool) or not isinstance(bits, int):
            continue
        return latest_bits, bits, ("same" if bits == latest_bits else "changed")
    return latest_bits, None, "new"


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode block sparkline, scaled to the series' own min..max."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_BLOCKS[0] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / (hi - lo) * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[idx])
    return "".join(out)


def render_perf_dashboard(
    history: Sequence[Mapping[str, Any]],
    threshold: float = 1.25,
    min_samples: int = 3,
) -> str:
    """The markdown perf dashboard written to ``docs/PERF.md``.

    One row per kernel: run count, a sparkline of wall ms across the
    whole history (oldest -> newest), latest/median ms, latest/median
    ratio, and the detector's verdict for the newest record.
    """
    lines = [
        "# Performance dashboard",
        "",
        "Generated by `python -m repro.cli compare --dashboard docs/PERF.md`",
        "from `BENCH_HISTORY.jsonl` (see `repro.obs.regress`). Each sparkline",
        "is wall ms/op across recorded harness runs, oldest to newest, scaled",
        "to that kernel's own min..max.",
        "",
    ]
    if not history:
        lines.append("_No history recorded yet._")
        return "\n".join(lines) + "\n"
    newest = history[-1]
    sha = newest.get("git_sha") or "unknown"
    lines.append(
        f"Latest record: `{str(sha)[:12]}` "
        f"({'quick' if newest.get('quick') else 'full'} parameters, "
        f"{len(history)} records total)."
    )
    lines.append("")
    lines.append("| kernel | runs | trend | latest ms | median ms | ratio | status |")
    lines.append("|---|---:|---|---:|---:|---:|---|")
    findings = {
        f.name: f
        for f in detect_regressions(
            history, threshold=threshold, min_samples=min_samples
        )
    }
    names = sorted(newest.get("entries", {}).keys())
    for name in names:
        series = _series(list(history), name)
        finding = findings.get(name)
        if finding is None or not series:
            continue
        median = finding.baseline_median
        lines.append(
            "| {name} | {runs} | `{spark}` | {latest:.2f} | {median} | {ratio} | {status} |".format(
                name=name,
                runs=len(series),
                spark=sparkline(series),
                latest=finding.latest_seconds * 1e3,
                median="-" if median is None else f"{median * 1e3:.2f}",
                ratio="-" if finding.ratio is None else f"{finding.ratio:.2f}x",
                status=finding.status,
            )
        )
    lines.append("")
    lines.append(
        f"Detector: regressed iff latest > {threshold}x median **and** "
        f"latest > median + {MAD_K:g} MAD, over a baseline window of "
        f"same-mode records (min {min_samples} samples)."
    )
    cost_rows = []
    for name in names:
        finding = findings.get(name)
        if finding is None or finding.latest_bits is None:
            continue
        entry = newest.get("entries", {}).get(name)
        rounds = entry.get("rounds") if isinstance(entry, Mapping) else None
        cost_rows.append(
            "| {name} | {bits} | {rounds} | {baseline} | {status} |".format(
                name=name,
                bits=finding.latest_bits,
                rounds="-" if rounds is None else rounds,
                baseline="-" if finding.baseline_bits is None else finding.baseline_bits,
                status=finding.cost_status,
            )
        )
    if cost_rows:
        lines.append("")
        lines.append("## Communication cost")
        lines.append("")
        lines.append(
            "Measured `CostLedger` totals per harness run. Bits are"
        )
        lines.append(
            "deterministic given the (quick, workers, kernel) tuple, so any"
        )
        lines.append(
            "`changed` verdict is a real protocol-cost change, not noise"
        )
        lines.append(
            "(warn-only: an intentional change legitimately moves the number)."
        )
        lines.append("")
        lines.append("| kernel | bits | rounds | baseline bits | status |")
        lines.append("|---|---:|---:|---:|---|")
        lines.extend(cost_rows)
    return "\n".join(lines) + "\n"


def normalize_baseline(payload: Any) -> Dict[str, Any]:
    """Coerce a ``--baseline REF.json`` payload into a history record.

    Accepts (a) a full history record, (b) ``{"entries": {...}}``, or
    (c) a flat ``{kernel: seconds}`` mapping. Raises ``ValueError``
    otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"baseline payload is {type(payload).__name__}, expected object"
        )
    if "entries" in payload:
        record = dict(payload)
        record.setdefault("schema_version", HISTORY_SCHEMA_VERSION)
        record.setdefault("ts", 0.0)
        record.setdefault("git_sha", None)
        record.setdefault("quick", True)
        problems = validate_history_record(record)
        if problems:
            raise ValueError(f"invalid baseline record: {problems}")
        return record
    entries: Dict[str, Any] = {}
    for name, value in payload.items():
        if isinstance(value, bool) or not isinstance(value, _NUMERIC):
            raise ValueError(
                f"baseline entry {name!r} is not a number of seconds"
            )
        entries[str(name)] = {"wall_time_seconds": float(value), "ok": True}
    if not entries:
        raise ValueError("baseline payload has no entries")
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "ts": 0.0,
        "git_sha": None,
        "quick": True,
        "entries": entries,
    }
