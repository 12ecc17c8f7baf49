"""Command-line interface: run any of the paper's experiments directly.

    python -m repro.cli list             # every subcommand, one line each
    python -m repro.cli <cmd> --help     # its flags

Each experiment prints a paper-vs-measured table (``--json``: one JSON
object); EXPERIMENTS.md maps them to the paper's lemmas and theorems.
Every subcommand is declared once, in :data:`COMMANDS`.

Cache and resume: ``--cache [DIR]`` (or ``REPRO_CACHE_DIR``) memoizes a
result in the content-addressed store of :mod:`repro.cache`. A repeat of
the same request is a hash lookup whose stdout is byte-identical to the
recompute, and one ``cache: hits=...`` line lands on stderr. ``exhaustive``
and ``sampling`` also store each shard as it completes, so after a budget
stop, Ctrl-C or SIGTERM, re-running the same command computes only the
missing shards (``--checkpoint DIR`` and ``--resume DIR`` name the same
directory).

Exit codes: 0 success; 1 experiment-level failure (a FAIL row); 2 user
error (bad arguments, invalid instance, unusable cache directory -- one
line on stderr, never a traceback); 3 budget exhausted (partial results
printed); 4 replay divergence (the recorded session and the live
re-execution disagree -- first divergence on stderr or in the report);
130 interrupted (after sealing any open session log).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.cache import DEFAULT_GC_MAX_BYTES
from repro.engine import ENGINE_KINDS, sweep_rows_from_payload
from repro.kernels import KERNEL_MODES
from repro.obs import DEFAULT_HISTORY_PATH


def _emit(args: argparse.Namespace, title: str, headers, rows) -> None:
    """Table or JSON, depending on the subcommand's ``--json`` flag."""
    from repro.analysis.reporting import emit_table

    emit_table(title, headers, rows, as_json=getattr(args, "json", False))


def _open_trace(args: argparse.Namespace):
    """A RunTrace for ``--trace FILE``, or None when the flag is absent."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro.obs import RunTrace

    return RunTrace(path)


def _cmd_crossing(args: argparse.Namespace) -> int:
    from repro.core import BCC1_KT0, ConstantAlgorithm, Simulator
    from repro.crossing import check_lemma_3_4, cross
    from repro.instances import one_cycle_instance

    n = args.n
    inst = one_cycle_instance(n, kt=0)
    e1, e2 = (0, 1), (n // 2, n // 2 + 1)
    crossed = cross(inst, e1, e2)
    trace = _open_trace(args)
    try:
        premise, conclusion = check_lemma_3_4(
            Simulator(BCC1_KT0, trace=trace),
            inst,
            crossed,
            ConstantAlgorithm,
            e1,
            e2,
            args.rounds,
        )
    finally:
        if trace is not None:
            trace.close()
    comps = sorted(len(c) for c in crossed.input_graph().connected_components())
    _emit(
        args,
        "Figure 1 / Lemma 3.4 (E1)",
        ["n", "crossed split", "rounds", "premise", "indistinguishable"],
        [[n, str(comps), args.rounds, premise, conclusion]],
    )
    return 0


def _cmd_star(args: argparse.Namespace) -> int:
    from repro.core import BCC1_KT0, SilentAlgorithm, Simulator
    from repro.lowerbounds import fool_algorithm, theorem_3_5_error_bound

    trace = _open_trace(args)
    try:
        report = fool_algorithm(
            Simulator(BCC1_KT0, trace=trace), SilentAlgorithm, args.n, args.rounds
        )
    finally:
        if trace is not None:
            trace.close()
    _emit(
        args,
        "Theorem 3.5 star adversary (E2)",
        ["n", "t", "|S|", "|S'|", "fooled", "verified", "achieved error", "closed-form floor"],
        [
            [
                report.n,
                report.rounds,
                report.independent_set_size,
                report.largest_class_size,
                report.fooled_pairs,
                report.indistinguishable_pairs,
                report.achieved_error,
                theorem_3_5_error_bound(args.n, args.rounds),
            ]
        ],
    )
    return 0


def _cmd_forced_error(args: argparse.Namespace) -> int:
    from repro.core import BCC1_KT0, SilentAlgorithm, Simulator
    from repro.algorithms import connectivity_factory
    from repro.lowerbounds import forced_error_of_algorithm

    trace = _open_trace(args)
    sim = Simulator(BCC1_KT0, trace=trace)
    rows = []
    try:
        for name, factory in [
            ("silent", SilentAlgorithm),
            ("neighbor-exchange", connectivity_factory(2)),
        ]:
            rep = forced_error_of_algorithm(sim, factory, args.n, args.rounds)
            rows.append(
                [name, rep.one_cycle_count, rep.fooled_two_cycle_instances, rep.forced_error]
            )
    finally:
        if trace is not None:
            trace.close()
    _emit(
        args,
        f"Theorem 3.1 forced error at n={args.n}, t={args.rounds} (E5)",
        ["algorithm", "|V1|", "fooled NO-instances", "forced error"],
        rows,
    )
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    from repro.indist import predicted_v2_v1_ratio

    rows = []
    for k in range(1, args.max_exp + 1):
        n = 10**k
        r = predicted_v2_v1_ratio(n)
        rows.append([n, r, 0.5 * math.log(n), r / math.log(n)])
    _emit(
        args,
        "Lemma 3.9: |V2|/|V1| vs (1/2) ln n (E4)",
        ["n", "ratio", "(1/2) ln n", "ratio / ln n"],
        rows,
    )
    return 0


def _cmd_reduction(args: argparse.Namespace) -> int:
    from repro.algorithms import components_factory, id_bit_width, neighbor_exchange_rounds
    from repro.partitions import random_perfect_matching
    from repro.twoparty import (
        BCCSimulationProtocol,
        build_two_partition_reduction,
        simulation_bits_per_round,
    )

    rng = random.Random(args.seed)
    n = args.n
    pa = random_perfect_matching(n, rng)
    pb = random_perfect_matching(n, rng)
    red = build_two_partition_reduction(pa, pb)
    rounds = neighbor_exchange_rounds(1, 2, id_bit_width(3 * n))
    proto = BCCSimulationProtocol("two_partition", components_factory(2), rounds, mode="components")
    res = proto.run(pa, pb)
    trace = _open_trace(args)
    if trace is not None:
        trace.emit(
            "protocol_start",
            variant="two_partition",
            n=n,
            seed=args.seed,
            bcc_rounds=rounds,
            p_a=str(pa),
            p_b=str(pb),
        )
        for index, turn in enumerate(res.turns):
            trace.emit(
                "turn", index=index, speaker=turn.speaker, bits=len(turn.bits)
            )
        trace.emit(
            "protocol_end",
            total_bits=res.total_bits,
            bob_output=str(res.bob_output),
            join=str(pa.join(pb)),
            correct=res.bob_output == pa.join(pb),
        )
        trace.close()
    _emit(
        args,
        "Figure 2 / Theorem 4.3 / Section 4.3 (E7, E8)",
        ["P_A", "P_B", "join", "simulated", "BCC rounds", "bits", "bits/round"],
        [
            [
                str(pa),
                str(pb),
                str(pa.join(pb)),
                str(res.bob_output),
                rounds,
                res.total_bits,
                simulation_bits_per_round("two_partition", n),
            ]
        ],
    )
    if res.bob_output != pa.join(pb):
        print(
            f"FAIL: simulated join disagrees with ground truth: "
            f"expected {pa.join(pb)}, got {res.bob_output} "
            f"(n={n}, seed={args.seed}, rounds={rounds})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_information(args: argparse.Namespace) -> int:
    from repro.information import evaluate_protocol, information_lower_bound
    from repro.twoparty import LossyPartitionCompProtocol, TrivialPartitionCompProtocol

    n = args.n
    rows = []
    clean = evaluate_protocol(TrivialPartitionCompProtocol(n), n)
    rows.append(["error-free", clean.error_rate, clean.information, clean.input_entropy])
    lossy = evaluate_protocol(LossyPartitionCompProtocol(n, args.eps), n)
    rows.append(
        [
            f"lossy (~{args.eps})",
            lossy.error_rate,
            lossy.information,
            information_lower_bound(n, lossy.error_rate),
        ]
    )
    _emit(
        args,
        f"Theorem 4.5 information accounting, n={n} (E9)",
        ["protocol", "measured eps", "I(P_A;Pi)", "floor"],
        rows,
    )
    return 0


def _cmd_upper_bounds(args: argparse.Namespace) -> int:
    from repro.algorithms import (
        agm_total_rounds,
        boruvka_max_rounds,
        id_bit_width,
        mt16_rounds,
        neighbor_exchange_rounds,
        peeling_round_budget,
    )
    from repro.lowerbounds import multicycle_round_bound

    n = args.n
    lb = multicycle_round_bound(max(4, (n // 4) * 2)).round_lower_bound
    _emit(
        args,
        "Upper bounds vs the Omega(log n) lower bound (E10)",
        ["algorithm", "model", "rounds (closed form)"],
        [
            ["Theorem 4.4 lower bound", "BCC(1) KT-1", f">= {lb:.3f}"],
            [
                "NeighborExchange (deg<=2)",
                "BCC(1) KT-1",
                neighbor_exchange_rounds(1, 2, id_bit_width(n - 1)),
            ],
            [
                "NeighborExchange (deg<=2)",
                "BCC(1) KT-0",
                neighbor_exchange_rounds(0, 2, id_bit_width(4 * n - 1)),
            ],
            ["Peeling (arboricity<=2)", "BCC(1) KT-1", peeling_round_budget(n, 2)],
            ["MT16 sketch (arboricity<=2)", "BCC(1) KT-1", mt16_rounds(2)],
            ["Boruvka", "BCC(log n) KT-1", boruvka_max_rounds(n)],
            ["FullAdjacency", "BCC(1) KT-1", n],
            ["AGM sketch", "BCC(32) KT-1", agm_total_rounds(n, 32)],
        ],
    )
    return 0


def _budget_from_args(args: argparse.Namespace, max_units: Optional[int]) -> object:
    """A Budget from --budget-seconds / a work cap, or None when unlimited."""
    seconds = getattr(args, "budget_seconds", None)
    if seconds is None and max_units is None:
        return None
    from repro.resilience import Budget

    return Budget(wall_seconds=seconds, max_units=max_units)


def _resume_hint(args: argparse.Namespace) -> str:
    """How to pick up where a stopped run left off ('' without a cache)."""
    directory = _cache_dir(args)
    if directory is None:
        return ""
    return f"; re-run the same command (completed shards are cached in {directory})"


def _interrupted(args: argparse.Namespace) -> int:
    """One-line 130 exit after Ctrl-C / SIGTERM, naming the cache."""
    print(f"interrupted{_resume_hint(args)}", file=sys.stderr)
    return 130


def _budget_exhausted(exc: Exception, args: argparse.Namespace) -> None:
    """One-line budget notice on stderr (the partial table already printed)."""
    print(f"budget exhausted: {exc}{_resume_hint(args)}", file=sys.stderr)


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """--cache DIR, else REPRO_CACHE_DIR, else None (the cache is off)."""
    directory = getattr(args, "cache", None)
    if directory is None:
        directory = os.environ.get("REPRO_CACHE_DIR") or None
    return directory


def _cache_from_args(args: argparse.Namespace):
    """A ResultCache from --cache (or REPRO_CACHE_DIR), else None (off).

    ``None`` means the engine takes the exact legacy path: no key
    derivation, no fingerprinting, no lookups.
    """
    directory = _cache_dir(args)
    if directory is None:
        return None
    from repro.cache import ResultCache

    return ResultCache(directory)


def _cache_status(cache) -> None:
    """One stderr line of this invocation's cache traffic.

    stderr so ``--json`` stdout stays a single parseable object, and so
    cold/warm stdout stays byte-identical.
    """
    if cache is None:
        return
    counters = cache.counters()
    print(
        "cache: hits={hits} misses={misses} stored={stored} "
        "bytes_saved={bytes_saved}".format(**counters),
        file=sys.stderr,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache

    directory = args.dir or os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
    cache = ResultCache(directory)
    if args.cache_command == "stats":
        stats = cache.stats()
        rows = [
            ["root", stats["root"]],
            ["entries", stats["entries"]],
            ["bytes", stats["bytes"]],
        ]
        for kind, count in sorted(stats["by_kind"].items()):
            rows.append([f"entries[{kind}]", count])
        _emit(args, f"result cache at {directory}", ["field", "value"], rows)
        return 0
    if args.cache_command == "verify":
        report = cache.verify(delete=args.delete)
        rows = [
            ["checked", report["checked"]],
            ["ok", report["ok"]],
            ["corrupt", len(report["corrupt"])],
            ["deleted", report["deleted"]],
        ]
        _emit(args, f"cache verify at {directory}", ["field", "value"], rows)
        for key in report["corrupt"]:
            print(f"INVALID cache entry: {key}", file=sys.stderr)
        return 1 if report["corrupt"] and not args.delete else 0
    # gc
    report = cache.gc(max_bytes=args.max_bytes)
    rows = [
        ["evicted", report["evicted"]],
        ["freed bytes", report["freed_bytes"]],
        ["swept tmp", report["swept_tmp"]],
        ["remaining bytes", report["remaining_bytes"]],
        ["max bytes", report["max_bytes"]],
    ]
    _emit(args, f"cache gc at {directory}", ["field", "value"], rows)
    return 0


@dataclass(frozen=True)
class Engine:
    """An engine-kind subcommand: its request, and how its result prints.

    The subcommand's name is the engine kind it requests. ``rows`` reads fields by name, so the same function formats a payload
    and the partial report of a budget-stopped run. ``cap`` names the
    work-cap flag of the resumable kinds: only they take a budget, run
    under :func:`~repro.resilience.graceful_interrupts` and end each row
    with a status column. ``check`` lists problems with a payload (exit 1).
    """

    params: Callable[[argparse.Namespace], dict]
    title: str  # str.format-ted with the request params
    headers: Tuple[str, ...]
    rows: Callable[[Mapping[str, Any]], list]
    cap: Optional[str] = None
    check: Optional[Callable[[dict], list]] = None

    def __call__(self, args: argparse.Namespace) -> int:
        """request -> ``execute()`` -> table, with the cache/budget plumbing."""
        from repro.engine import EngineOptions, EngineRequest, execute
        from repro.errors import BudgetExceededError

        request = EngineRequest(
            args.command,
            self.params(args),
            kernel=getattr(args, "kernel", "auto"),
            workers=_resolved_workers(args),
        )
        title = self.title.format(**request.params)

        def emit(fields: Mapping[str, Any], status: str) -> None:
            headers, rows = self.headers, self.rows(fields)
            if self.cap is not None:
                headers += ("status",)
                rows = [row + [status] for row in rows]
            _emit(args, title, headers, rows)

        budget = None
        interrupts = nullcontext()
        if self.cap is not None:
            from repro.resilience import graceful_interrupts

            budget = _budget_from_args(args, getattr(args, self.cap))
            interrupts = graceful_interrupts()
        cache = _cache_from_args(args)
        trace = _open_trace(args)
        try:
            with _live_scope(args), interrupts:
                result = execute(
                    request,
                    cache=cache,
                    options=EngineOptions(budget=budget, trace=trace),
                )
        except BudgetExceededError as exc:
            partial = exc.partial
            if partial is not None:  # a report: its payload keys are attributes
                fields = {k: getattr(partial, k) for k in dir(partial) if k[0] != "_"}
                emit(fields, "partial (budget exhausted)")
            _budget_exhausted(exc, args)
            return 3
        except KeyboardInterrupt:
            if self.cap is None:
                raise
            return _interrupted(args)
        finally:
            if trace is not None:
                trace.close()
        payload = result.payload
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        emit(payload, "complete")
        _cache_status(cache)
        problems = self.check(payload) if self.check is not None else []
        for problem in problems:
            print(f"INVALID payload: {problem}", file=sys.stderr)
        return 1 if problems else 0


def _live_scope(args: argparse.Namespace):
    """``--live``: one progress line per sweep cell on stderr."""
    if not getattr(args, "live", False):
        return nullcontext()
    from repro.obs.stream import EventBus, line_printer, use_bus

    bus = EventBus()
    bus.subscribe(line_printer())
    return use_bus(bus)


def _ranks_params(args: argparse.Namespace) -> dict:
    return {
        "m_ns": list(range(1, args.max_n + 1)),
        "e_ns": list(range(2, args.max_n + 3, 2)),
    }


def _ranks_rows(payload: Mapping[str, Any]) -> list:
    return [
        [matrix, row["n"], row["rank"], row["predicted"]]
        for matrix, key in (("M", "m_rows"), ("E", "e_rows"))
        for row in payload[key]
    ]


def _exhaustive_rows(report: Mapping[str, Any]) -> list:
    worst = "".join(c if c else "-" for c in report["worst_assignment"])
    return [
        [
            report["n"],
            report["class_size"],
            report["minimum_forced_error"],
            report["is_constant"],
            worst,
        ]
    ]


_SAMPLING_FIELDS = (
    "n",
    "samples",
    "information_estimate",
    "corrected_information",
    "true_input_entropy",
    "saturated",
    "error_rate_estimate",
)


def _sweep_params(args: argparse.Namespace) -> dict:
    """``fault-sweep`` and ``record fault-sweep`` (which has no --quick)."""
    kinds = list(args.kinds or ("bit_flip", "erasure", "crash"))
    if getattr(args, "quick", False):
        algorithms, rates = ["neighbor_exchange", "flooding"], [0.0, 0.1]
        n, trials = 6, 4
    else:
        algorithms = list(args.algorithms)
        rates = [float(r) for r in args.rates]
        n, trials = args.n, args.trials
    return {
        "algorithms": algorithms,
        "kinds": kinds,
        "rates": rates,
        "n": n,
        "trials": trials,
        "seed": args.seed,
    }


def _sweep_problems(payload: dict) -> list:
    from repro.resilience import validate_fault_sweep_payload

    return validate_fault_sweep_payload(payload)


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.lowerbounds import full_report

    report = full_report()
    _emit(
        args,
        "All three results, one pass (laptop scale)",
        ["result", "quantity", "value"],
        report.rows(),
    )
    return 0


def _round_percentiles(metrics: dict) -> tuple:
    """(p50 ms, p99 ms) of simulator.round_seconds, or ('-', '-')."""
    summary = metrics.get("histograms", {}).get("simulator.round_seconds")
    if not isinstance(summary, dict) or not summary.get("count"):
        return "-", "-"
    return (
        round(summary.get("p50", summary.get("mean", 0.0)) * 1e3, 4),
        round(summary.get("p99", summary.get("mean", 0.0)) * 1e3, 4),
    )


def _unknown_bench(names: Sequence[str]) -> bool:
    """Print the usage error for the first unregistered benchmark name."""
    from repro.obs import bench_names

    for name in names:
        if name not in bench_names():
            print(
                f"error: unknown benchmark {name!r}; known: "
                f"{', '.join(bench_names())}",
                file=sys.stderr,
            )
            return True
    return False


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import BenchmarkHarness

    if _unknown_bench(args.only or ()):
        return 2
    workers = _resolved_workers(args)
    kernel = getattr(args, "kernel", "auto")
    cache_dir = _cache_dir(args)
    harness = BenchmarkHarness(
        out_dir=args.out_dir,
        quick=args.quick,
        workers=workers,
        kernel=kernel,
        cache_dir=cache_dir,
    )
    results = harness.run(args.only or None)
    rows = []
    for r in results:
        counters = r.metrics.get("counters", {})
        p50, p99 = _round_percentiles(r.metrics)
        rows.append(
            [
                r.name,
                r.ok,
                r.wall_time_seconds,
                counters.get("simulator.rounds_executed", 0),
                counters.get("simulator.bits_broadcast", 0),
                p50,
                p99,
                r.path or "-",
            ]
        )
    _emit(
        args,
        f"benchmark harness ({'quick' if args.quick else 'full'} parameters)",
        [
            "benchmark",
            "ok",
            "wall s",
            "sim rounds",
            "sim bits",
            "round p50 ms",
            "round p99 ms",
            "file",
        ],
        rows,
    )
    if args.history:
        from repro.obs.regress import append_history, current_git_sha, history_record

        record = history_record(
            results,
            quick=args.quick,
            git_sha=current_git_sha(),
            workers=workers,
            kernel=kernel,
            cache="on" if cache_dir else "off",
        )
        append_history(record, args.history)
        if not getattr(args, "json", False):
            print(
                f"history: appended {len(record['entries'])} entries to {args.history}"
            )
    failures = [r.name for r in results if not r.ok]
    if failures:
        print(f"FAIL: benchmarks not ok: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if getattr(args, "session", None):
        return _report_session(args)
    from repro.obs import load_bench_payloads, validate_bench_payload

    payloads = load_bench_payloads(args.dir)
    if not payloads:
        print(f"no BENCH_*.json files found in {args.dir!r}", file=sys.stderr)
        return 1
    rows = []
    invalid = []
    for path, payload in payloads:
        problems = validate_bench_payload(payload)
        if problems:
            invalid.append((path, problems))
        counters = payload.get("metrics", {}).get("counters", {})
        costs = payload.get("costs", {})
        rows.append(
            [
                payload.get("name", "?"),
                payload.get("schema_version", "?"),
                payload.get("quick", "?"),
                payload.get("ok", "?"),
                payload.get("wall_time_seconds", "?"),
                counters.get("simulator.rounds_executed", 0),
                counters.get("simulator.bits_broadcast", 0),
                costs.get("total_bits", "-") if isinstance(costs, dict) else "-",
                "valid" if not problems else f"{len(problems)} problem(s)",
            ]
        )
    _emit(
        args,
        f"benchmark history in {args.dir} ({len(payloads)} files)",
        [
            "benchmark",
            "schema",
            "quick",
            "ok",
            "wall s",
            "sim rounds",
            "sim bits",
            "ledger bits",
            "schema check",
        ],
        rows,
    )
    if getattr(args, "per_vertex", False):
        vertex_rows = []
        for _path, payload in payloads:
            costs = payload.get("costs")
            if not isinstance(costs, dict):
                continue
            for entry in costs.get("per_vertex", []) or []:
                if not isinstance(entry, dict):
                    continue
                vertex_rows.append(
                    [
                        payload.get("name", "?"),
                        entry.get("vertex", "?"),
                        entry.get("bits", "?"),
                        entry.get("silent_rounds", "?"),
                    ]
                )
        if vertex_rows:
            _emit(
                args,
                f"per-vertex communication cost in {args.dir}",
                ["benchmark", "vertex", "bits sent", "silent rounds"],
                vertex_rows,
            )
        elif not getattr(args, "json", False):
            print(
                "per-vertex: no payload carries a costs section "
                "(re-run `repro bench` to record ledgers)"
            )
    if getattr(args, "per_phase", False):
        phase_rows = []
        for _path, payload in payloads:
            costs = payload.get("costs")
            if not isinstance(costs, dict):
                continue
            per_phase = costs.get("per_phase")
            if not isinstance(per_phase, dict):
                continue
            total = sum(
                bits for bits in per_phase.values() if isinstance(bits, int)
            )
            for phase, bits in sorted(per_phase.items()):
                share = f"{bits / total:.1%}" if total else "-"
                phase_rows.append(
                    [payload.get("name", "?"), phase, bits, share]
                )
        if phase_rows:
            _emit(
                args,
                f"per-phase communication cost in {args.dir} "
                "(two-party runs split simulate/decision)",
                ["benchmark", "phase", "bits", "share"],
                phase_rows,
            )
        elif not getattr(args, "json", False):
            print(
                "per-phase: no payload carries a per-phase ledger "
                "(re-run `repro bench` to record ledgers)"
            )
    for path, problems in invalid:
        for problem in problems:
            print(f"INVALID {path}: {problem}", file=sys.stderr)
    return 1 if invalid else 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs import (
        BenchmarkHarness,
        SpanRecorder,
        render_hotspots,
        render_span_tree,
        use_recorder,
        validate_span_tree_payload,
    )

    if _unknown_bench([args.bench]):
        return 2
    trace = _open_trace(args)
    recorder = SpanRecorder(trace=trace)
    harness = BenchmarkHarness(out_dir=None, quick=args.quick)
    try:
        with use_recorder(recorder):
            result = harness.run_one(args.bench)
    finally:
        if trace is not None:
            trace.close()
    payload = recorder.tree_payload()
    problems = validate_span_tree_payload(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
    if args.json:
        print(
            json.dumps(
                {
                    "bench": args.bench,
                    "quick": args.quick,
                    "ok": result.ok,
                    "wall_time_seconds": result.wall_time_seconds,
                    "span_count": recorder.span_count(),
                    "tree": payload,
                },
                sort_keys=False,
            )
        )
    else:
        mode = "quick" if args.quick else "full"
        print(
            f"span profile: {args.bench} ({mode} parameters, "
            f"{recorder.span_count()} spans, "
            f"wall {result.wall_time_seconds:.3f}s)"
        )
        print()
        print(render_span_tree(payload, max_depth=args.max_depth))
        print()
        print(render_hotspots(payload, top=args.top))
    for problem in problems:
        print(f"INVALID span tree: {problem}", file=sys.stderr)
    if problems or not result.ok:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.regress import (
        detect_regressions,
        normalize_baseline,
        read_history,
        render_perf_dashboard,
    )

    history = read_history(args.history)
    if not history:
        print(f"error: no records in {args.history!r}", file=sys.stderr)
        return 2
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = normalize_baseline(json.load(handle))
        newest = history[-1]
        baseline = dict(baseline)
        baseline["quick"] = newest.get("quick")  # force a comparable mode
        baseline["workers"] = newest.get("workers", 1)  # never cross worker counts
        baseline["kernel"] = newest.get("kernel", "auto")  # nor kernel modes
        findings = detect_regressions(
            [baseline, newest], threshold=args.threshold, min_samples=1
        )
    else:
        findings = detect_regressions(
            history, threshold=args.threshold, min_samples=args.min_samples
        )
    _emit(
        args,
        f"perf comparison over {args.history} "
        f"(threshold {args.threshold}x median + MAD gate)",
        ["kernel", "baseline runs", "median ms", "MAD ms", "latest ms", "ratio", "status"],
        [f.row() for f in findings],
    )
    if args.dashboard:
        with open(args.dashboard, "w", encoding="utf-8") as handle:
            handle.write(
                render_perf_dashboard(
                    history, threshold=args.threshold, min_samples=args.min_samples
                )
            )
        if not getattr(args, "json", False):
            print(f"dashboard: wrote {args.dashboard}")
    # Communication-cost changes are warn-only by design: bits are
    # deterministic per (quick, workers, kernel), so a change is real --
    # but an intentional protocol change legitimately moves the number,
    # and the reviewer (not the gate) decides whether it was meant.
    cost_changed = [f for f in findings if f.cost_changed]
    if cost_changed:
        _emit(
            args,
            "communication-cost changes (warn-only; deterministic per mode)",
            ["kernel", "bits", "baseline bits", "status"],
            [f.cost_row() for f in cost_changed],
        )
        print(
            f"COST CHANGED: {', '.join(f.name for f in cost_changed)}",
            file=sys.stderr,
        )
    regressed = [f.name for f in findings if f.regressed]
    if regressed:
        print(f"REGRESSED: {', '.join(regressed)}", file=sys.stderr)
        if args.fail_on_regress:
            return 1
    return 0


def _cmd_cost_check(args: argparse.Namespace) -> int:
    from repro.costs import HAVE_SYMPY, check_all, spec_names

    names = args.only or None
    if names:
        unknown = [n for n in names if n not in spec_names()]
        if unknown:
            print(
                f"error: unknown cost spec(s) {', '.join(unknown)}; known: "
                f"{', '.join(spec_names())}",
                file=sys.stderr,
            )
            return 2
    results = check_all(quick=args.quick, names=names)
    backend = "sympy cross-check on" if HAVE_SYMPY else "exact backend only"
    _emit(
        args,
        f"cost conformance ({'quick' if args.quick else 'full'} parameters, "
        f"{backend})",
        [
            "spec",
            "kind",
            "rounds",
            "vs spec",
            "bits",
            "vs spec",
            "backend",
            "verdict",
        ],
        [r.row() for r in results],
    )
    bad = [r for r in results if not r.ok]
    for r in bad:
        for problem in r.problems:
            print(f"MISMATCH {r.name}: {problem}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, trace_stats, validate_trace_events

    events = read_trace(args.file, schema_version=args.schema_version)
    problems = validate_trace_events(events)
    stats = trace_stats(events)
    if args.json:
        print(
            json.dumps(
                {
                    "file": args.file,
                    "events": len(events),
                    "runs": len(stats),
                    "problems": problems,
                    "stats": stats,
                },
                sort_keys=False,
            )
        )
    else:
        verdict = "valid" if not problems else f"{len(problems)} problem(s)"
        print(f"{args.file}: {len(events)} events, {len(stats)} run(s), {verdict}")
        if args.stats:
            rows = []
            for run_id, entry in sorted(stats.items()):
                by_event = " ".join(
                    f"{name}={count}"
                    for name, count in sorted(entry["by_event"].items())
                )
                sessions = entry.get("sessions")
                if sessions:
                    kinds = ",".join(
                        f"{kind}x{count}"
                        for kind, count in sorted(sessions["kinds"].items())
                    )
                    session_cell = (
                        f"{kinds or '-'} steps={sessions['steps']} "
                        f"complete={sessions['complete']}"
                    )
                else:
                    session_cell = "-"
                cache_stats = entry.get("cache")
                cache_cell = (
                    f"hits={cache_stats['hits']} misses={cache_stats['misses']}"
                    if cache_stats
                    else "-"
                )
                rows.append(
                    [
                        run_id,
                        entry["schema_version"],
                        entry["events"],
                        by_event,
                        entry.get("cost_bits", "-"),
                        cache_cell,
                        session_cell,
                    ]
                )
            _emit(
                args,
                f"trace statistics for {args.file}",
                ["run id", "schema", "events", "by event", "cost bits", "cache", "sessions"],
                rows,
            )
    for problem in problems:
        print(f"INVALID {args.file}: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs import load_bench_payloads, read_history
    from repro.obs.dash import build_dashboard, validate_dashboard_html

    def _load_json(path: str, what: str):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {what} {path!r}: {exc}", file=sys.stderr)
            return None

    history = []
    if args.history:
        try:
            history = read_history(args.history)
        except OSError as exc:
            print(
                f"error: cannot read history {args.history!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    bench_payloads = load_bench_payloads(args.dir)
    sweep = None
    if args.sweep:
        sweep = _load_json(args.sweep, "fault-sweep payload")
        if sweep is None:
            return 2
    span_payload = None
    if args.spans:
        span_payload = _load_json(args.spans, "span tree payload")
        if span_payload is None:
            return 2
    sessions = []
    if args.sessions:
        from repro.errors import SessionError
        from repro.replay import read_session

        for path in args.sessions:
            try:
                sessions.append(read_session(path))
            except SessionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    cache_stats = None
    if args.cache:
        from repro.cache import ResultCache

        cache_stats = ResultCache(args.cache).stats()
    html = build_dashboard(
        history=history,
        bench_payloads=bench_payloads,
        sweep=sweep,
        sessions=sessions,
        span_payload=span_payload,
        cache_stats=cache_stats,
        timestamp=args.timestamp,
        title=args.title,
    )
    problems = validate_dashboard_html(html)
    if problems:
        for problem in problems:
            print(f"INVALID dashboard: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    sources = sum(
        [
            1 if history else 0,
            1 if bench_payloads else 0,
            1 if sweep else 0,
            1 if span_payload else 0,
            len(sessions),
        ]
    )
    print(
        f"dash: wrote {args.out} ({len(html.encode('utf-8'))} bytes, "
        f"{sources} source(s), self-contained)"
    )
    return 0


def _parse_crash_at(specs) -> list:
    """``--crash-at V:T`` occurrences -> ScheduledFault dicts."""
    scheduled = []
    for spec in specs or ():
        try:
            vertex, round_index = spec.split(":", 1)
            scheduled.append(
                {
                    "round_index": int(round_index),
                    "kind": "crash",
                    "vertex": int(vertex),
                }
            )
        except ValueError:
            raise ValueError(
                f"--crash-at expects VERTEX:ROUND (e.g. 3:2), got {spec!r}"
            ) from None
    return scheduled


def _record_params(args: argparse.Namespace) -> dict:
    """The session ``params`` header for ``repro record`` -- everything
    the chosen engine needs to re-execute deterministically."""
    kind = args.kind
    if kind == "run":
        params = {"algorithm": args.algorithm, "n": args.n}
        if args.instance != "one_cycle":
            params["instance"] = args.instance
        if args.split is not None:
            params["split"] = args.split
        if args.rounds is not None:
            params["rounds"] = args.rounds
        if args.coin_seed is not None:
            params["coin_seed"] = args.coin_seed
        faults = {}
        if args.bit_flip_rate:
            faults["bit_flip_rate"] = args.bit_flip_rate
        if args.erasure_rate:
            faults["erasure_rate"] = args.erasure_rate
        if args.crash_rate:
            faults["crash_rate"] = args.crash_rate
        scheduled = _parse_crash_at(args.crash_at)
        if scheduled:
            faults["scheduled"] = scheduled
        if faults:
            faults["seed"] = args.fault_seed
            if args.max_crashes is not None:
                faults["max_crashes"] = args.max_crashes
            params["faults"] = faults
        network = {}
        if args.max_delay:
            network["max_delay"] = args.max_delay
        if args.duplicate_rate:
            network["duplicate_rate"] = args.duplicate_rate
        if args.reorder:
            network["reorder"] = True
        if network:
            network["seed"] = args.net_seed
            params["network"] = network
        return params
    if kind == "exhaustive":
        return {"n": args.n, "workers": _resolved_workers(args)}
    if kind == "sampling":
        return {
            "n": args.n,
            "eps": args.eps,
            "samples": args.samples,
            "seed": args.seed,
            "workers": _resolved_workers(args),
        }
    if kind == "ranks":
        return {
            "ns": [int(n) for n in args.ns],
            "kernel": args.kernel,
            "workers": _resolved_workers(args),
        }
    return dict(_sweep_params(args), workers=_resolved_workers(args))  # fault-sweep


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.replay import record_session
    from repro.resilience import graceful_interrupts

    params = _record_params(args)
    with graceful_interrupts():
        payload, store = record_session(args.kind, params, args.session)
    if args.kind == "run":
        outcome = (
            f"decision={payload['decision']} "
            f"rounds={payload['rounds_executed']} bits={payload['total_bits']} "
            f"faults={payload['faults_injected']} "
            f"anomalies={payload['delivery_anomalies']}"
        )
    else:
        outcome = f"{len(payload)} result fields"
    _emit(
        args,
        f"recorded session -> {args.session}",
        ["kind", "steps", "sealed", "outcome"],
        [[args.kind, store.steps_recorded, True, outcome]],
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.replay import replay_session

    report = replay_session(args.file)
    if args.json:
        print(
            json.dumps(
                {
                    "file": args.file,
                    "run_id": report.run_id,
                    "kind": report.kind,
                    "matched": report.matched,
                    "partial": report.partial,
                    "steps_compared": report.steps_compared,
                    "divergence": (
                        None
                        if report.divergence is None
                        else {
                            "location": report.divergence.location,
                            "field": report.divergence.field,
                            "recorded": report.divergence.recorded,
                            "replayed": report.divergence.replayed,
                        }
                    ),
                },
                sort_keys=False,
                default=str,
            )
        )
    elif args.verify or not report.matched:
        print(report.describe())
    else:
        partial = " (partial recording)" if report.partial else ""
        print(
            f"{args.file}: replay MATCH, {report.steps_compared} step(s){partial}"
        )
    return 0 if report.matched else 4


def _cmd_rewind(args: argparse.Namespace) -> int:
    from repro.replay import SessionCursor

    cursor = SessionCursor(args.file)
    cursor.rewind(args.to)
    rows = []
    for _ in range(max(1, args.walk)):
        if cursor.exhausted:
            break
        step = cursor.step()
        broadcasts = step.get("broadcasts")
        rows.append(
            [
                step.get("step"),
                step.get("t", "-"),
                " ".join(m if m else "⊥" for m in broadcasts)
                if broadcasts is not None
                else step.get("name", "-"),
                len(step.get("faults", ())),
                len(step.get("deliveries", ())),
                step.get("all_finished", "-"),
            ]
        )
    session = cursor.session
    _emit(
        args,
        f"session {session.run_id} (kind={session.kind}, "
        f"{session.step_count} steps) from step {args.to}",
        ["step", "round", "broadcasts", "faults", "deliveries", "finished"],
        rows,
    )
    if args.branch is not None:
        overrides = json.loads(args.branch)
        cursor.rewind(args.to)
        branched = cursor.branch(overrides, sink=args.out)
        suffix = f" -> {args.out}" if args.out else ""
        print(
            f"branch OK: prefix agrees through step {args.to}, "
            f"branched session has {branched.step_count} step(s){suffix}"
        )
    return 0


def _report_session(args: argparse.Namespace) -> int:
    """``repro report --session FILE``: summarize one recorded session."""
    from repro.costs import cost_summary_from_broadcasts
    from repro.replay import read_session

    session = read_session(args.session)
    state = "complete" if session.complete else (
        "interrupted" if session.interrupted else "truncated"
    )
    fault_counts: dict = {}
    delivery_edges: dict = {}
    for step in session.steps:
        for fault in step.get("faults", ()):
            kind = fault.get("kind", "?")
            fault_counts[kind] = fault_counts.get(kind, 0) + 1
        for event in step.get("deliveries", ()):
            edge = (event.get("sender"), event.get("receiver"))
            per_kind = delivery_edges.setdefault(edge, {})
            kind = event.get("kind", "?")
            per_kind[kind] = per_kind.get(kind, 0) + 1
    faults_summary = (
        " ".join(f"{k}={v}" for k, v in sorted(fault_counts.items())) or "none"
    )
    _emit(
        args,
        f"session report: {args.session}",
        ["run id", "kind", "steps", "state", "result", "faults"],
        [
            [
                session.run_id,
                session.kind,
                session.step_count,
                state,
                "recorded" if session.result is not None else "absent",
                faults_summary,
            ]
        ],
    )
    if delivery_edges:
        rows = [
            [
                f"{edge[0]}->{edge[1]}",
                *(per_kind.get(k, 0) for k in ("delayed", "duplicated", "reordered", "dropped")),
            ]
            for edge, per_kind in sorted(delivery_edges.items())
        ]
        _emit(
            args,
            f"per-edge delivery anomalies ({len(delivery_edges)} edges)",
            ["edge", "delayed", "duplicated", "reordered", "dropped"],
            rows,
        )
    if session.kind == "run" and session.result is not None:
        recorded = session.result.get("cost_summary")
        rebuilt = cost_summary_from_broadcasts(
            [step.get("broadcasts", []) for step in session.steps]
        )
        if recorded is not None:
            if recorded == rebuilt:
                print("cost parity: OK (recorded summary matches the step log)")
            else:
                print(
                    "cost parity: MISMATCH -- recorded cost summary disagrees "
                    "with the broadcasts in the step log",
                    file=sys.stderr,
                )
                return 1
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("available experiments:")
    for command in COMMANDS:
        if command.run is not _cmd_list:
            print(f"  {command.name:14s} {command.help}")
    return 0


def _resolved_workers(args: argparse.Namespace) -> int:
    """The effective --workers value (0 -> one per CPU; 1 without the flag)."""
    workers = getattr(args, "workers", None)
    if workers is None:
        return 1
    from repro.parallel import resolve_workers

    return resolve_workers(workers)


Flag = Callable[[argparse.ArgumentParser], Any]


def _arg(*names: str, **kwargs: Any) -> Flag:
    """One ``add_argument`` call, made when the parser is built."""
    return lambda p: p.add_argument(*names, **kwargs)


_json_flag = _arg(
    "--json",
    action="store_true",
    help="emit the result table as one JSON object instead of ASCII",
)
_trace_flag = _arg(
    "--trace",
    metavar="FILE",
    default=None,
    help="append a structured JSONL run trace to FILE",
)
_workers_flag = _arg(
    "--workers",
    type=int,
    default=1,
    metavar="N",
    help=(
        "fan the work out over N processes (deterministic: the result "
        "is identical for every N; 0 = one per CPU, default: 1)"
    ),
)
_kernel_flag = _arg(
    "--kernel",
    choices=KERNEL_MODES,
    default="auto",
    help=(
        "compute-kernel mode: 'auto' (default) runs the fast engines "
        "of repro.kernels, 'reference' the pure-python originals; "
        "results are identical"
    ),
)


def _cache_flag(*aliases: str) -> Flag:
    return _arg(
        "--cache",
        *aliases,
        dest="cache",
        nargs="?",
        const=".repro-cache",
        default=None,
        metavar="DIR",
        help=(
            "memoize the result in a content-addressed cache at DIR "
            "(default: .repro-cache); a repeat of the same request becomes "
            "a hash lookup with byte-identical output, and completed shards "
            "are stored as they finish, so re-running a stopped run computes "
            "only what is missing. Setting REPRO_CACHE_DIR enables the same "
            "thing without the flag"
        ),
    )


_budget_flag = _arg(
    "--budget-seconds",
    type=float,
    default=None,
    metavar="S",
    help="wall-clock budget; exhaustion prints the partial result, exit 3",
)
# --checkpoint / --resume name the same directory: completed shards
# land in the cache, and a re-run computes only the missing ones.
_resume_flag = _cache_flag("--checkpoint", "--resume")
_cache_dir_flag = _arg(
    "--dir",
    default=None,
    metavar="DIR",
    help="cache directory (default: REPRO_CACHE_DIR if set, else .repro-cache)",
)


class Command:
    """One subcommand: its name, ``list``/``--help`` line, handler and flags.

    ``actions`` makes it a command group (``cache stats|verify|gc``) whose
    chosen action lands in ``<name>_command``.
    """

    def __init__(
        self,
        name: str,
        help: str,
        run: Optional[Callable[[argparse.Namespace], int]] = None,
        *flags: Flag,
        actions: Tuple["Command", ...] = (),
    ):
        self.name, self.help, self.run = name, help, run
        self.flags, self.actions = flags, actions


COMMANDS: Tuple[Command, ...] = (
    Command("list", "list experiments", _cmd_list),
    Command(
        "crossing",
        "E1: Figure 1 crossing + Lemma 3.4 on a live run",
        _cmd_crossing,
        _arg("--n", type=int, default=12),
        _arg("--rounds", type=int, default=4),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "star",
        "E2: Theorem 3.5 star adversary",
        _cmd_star,
        _arg("--n", type=int, default=30),
        _arg("--rounds", type=int, default=3),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "forced-error",
        "E5: Theorem 3.1 exact forced error (exhaustive; small n)",
        _cmd_forced_error,
        _arg("--n", type=int, default=6),
        _arg("--rounds", type=int, default=2),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "ratio",
        "E4: Lemma 3.9 |V2|/|V1| growth",
        _cmd_ratio,
        _arg("--max-exp", type=int, default=6),
        _json_flag,
    ),
    Command(
        "ranks",
        "E6: Theorem 2.3 / Lemma 4.1 exact ranks",
        Engine(
            _ranks_params,
            "Theorem 2.3 / Lemma 4.1 exact ranks (E6)",
            ("matrix", "n", "rank", "predicted"),
            _ranks_rows,
        ),
        _arg("--max-n", type=int, default=5),
        _kernel_flag,
        _cache_flag(),
        _json_flag,
    ),
    Command(
        "reduction",
        "E7+E8: Figure 2 reduction + Section 4.3 simulation",
        _cmd_reduction,
        _arg("--n", type=int, default=8),
        _arg("--seed", type=int, default=1),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "information",
        "E9: Theorem 4.5 information accounting",
        _cmd_information,
        _arg("--n", type=int, default=5),
        _arg("--eps", type=float, default=0.3),
        _json_flag,
    ),
    Command(
        "upper-bounds",
        "E10: the upper-bound comparators",
        _cmd_upper_bounds,
        _arg("--n", type=int, default=32),
        _json_flag,
    ),
    Command(
        "exhaustive",
        "universal 1-round KT-0 bound (budget/resume)",
        Engine(
            lambda args: {"n": args.n},
            "universal 1-round KT-0 bound at n={n} (exhaustive class search)",
            ("n", "class size", "min forced error", "constant?", "worst assignment"),
            _exhaustive_rows,
            cap="max_assignments",
        ),
        _arg("--n", type=int, default=6),
        _arg(
            "--max-assignments",
            type=int,
            default=None,
            metavar="K",
            help="stop (budget exhausted, exit 3) after K assignments",
        ),
        _workers_flag,
        _budget_flag,
        _resume_flag,
        _json_flag,
    ),
    Command(
        "sampling",
        "sampled Theorem 4.5 information estimate (resumable)",
        Engine(
            lambda args: {
                "n": args.n,
                "samples": args.samples,
                "seed": args.seed,
                "eps": args.eps,
            },
            "sampled information estimate at n={n} (Theorem 4.5 distribution)",
            (
                "n",
                "samples",
                "I estimate",
                "corrected",
                "H(P_A) true",
                "saturated",
                "error rate",
            ),
            lambda report: [[report[field] for field in _SAMPLING_FIELDS]],
            cap="max_samples",
        ),
        _arg("--n", type=int, default=6),
        _arg("--samples", type=int, default=500),
        _arg("--seed", type=int, default=0),
        _arg(
            "--eps",
            type=float,
            default=0.0,
            help="use the lossy protocol with this target error (default: exact)",
        ),
        _arg(
            "--max-samples",
            type=int,
            default=None,
            metavar="K",
            help="stop (budget exhausted, exit 3) after K samples",
        ),
        _workers_flag,
        _budget_flag,
        _resume_flag,
        _json_flag,
    ),
    Command(
        "fault-sweep",
        "correctness-vs-fault-rate degradation curves",
        Engine(
            _sweep_params,
            "fault-injection degradation sweep (n={n}, {trials} trials/point)",
            (
                "algorithm",
                "fault kind",
                "rate",
                "trials",
                "correct",
                "correctness",
                "faults",
                "mean rounds",
            ),
            sweep_rows_from_payload,
            check=_sweep_problems,
        ),
        _arg("--n", type=int, default=8),
        _arg("--trials", type=int, default=6),
        _arg("--seed", type=int, default=0),
        _arg(
            "--rates",
            nargs="+",
            default=["0.0", "0.01", "0.05", "0.1", "0.2"],
            metavar="R",
            help="fault rates to sweep",
        ),
        _arg(
            "--kinds",
            nargs="+",
            default=None,
            metavar="KIND",
            help="fault kinds (bit_flip erasure crash; default: all)",
        ),
        _arg(
            "--algorithms",
            nargs="+",
            default=["neighbor_exchange", "flooding", "boruvka", "sketch"],
            metavar="ALGO",
            help="upper-bound algorithms to sweep",
        ),
        _arg(
            "--quick",
            action="store_true",
            help="CI smoke preset: n=6, 4 trials, rates 0.0/0.1, 2 fast algorithms",
        ),
        _arg(
            "--out",
            metavar="FILE",
            default=None,
            help="also write the schema-versioned fault_sweep JSON payload to FILE",
        ),
        _arg(
            "--live",
            action="store_true",
            help=(
                "stream one progress line per sweep cell to stderr as it "
                "completes (via the repro.obs.stream event bus)"
            ),
        ),
        _workers_flag,
        _cache_flag(),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "all",
        "one-pass summary of all three results",
        _cmd_all,
        _json_flag,
    ),
    Command(
        "bench",
        "run the machine-readable benchmark harness (BENCH_*.json)",
        _cmd_bench,
        _arg(
            "--quick",
            action="store_true",
            help="use each benchmark's quick (CI smoke) parameter set",
        ),
        _arg(
            "--only",
            nargs="+",
            metavar="NAME",
            default=None,
            help="run only these harness benchmarks (see `repro.cli bench --help`)",
        ),
        _arg(
            "--out-dir",
            default=".",
            help="directory for BENCH_<name>.json files (default: current dir)",
        ),
        _arg(
            "--history",
            nargs="?",
            const=DEFAULT_HISTORY_PATH,
            default=None,
            metavar="FILE",
            help=(
                "append one history line (git SHA, timestamp, per-kernel wall "
                f"times) to FILE (default: {DEFAULT_HISTORY_PATH})"
            ),
        ),
        _workers_flag,
        _kernel_flag,
        _cache_flag(),
        _json_flag,
    ),
    Command(
        "report",
        "validate + summarize existing BENCH_*.json files",
        _cmd_report,
        _arg(
            "--dir",
            default=".",
            help="directory holding BENCH_*.json files (default: current dir)",
        ),
        _arg(
            "--per-vertex",
            action="store_true",
            dest="per_vertex",
            help=(
                "also print each payload's per-vertex ledger: bits sent and "
                "silent rounds per vertex (from the optional costs section)"
            ),
        ),
        _arg(
            "--per-phase",
            action="store_true",
            dest="per_phase",
            help=(
                "also print each payload's per-phase ledger (two-party runs "
                "split into simulate/decision phases)"
            ),
        ),
        _arg(
            "--session",
            metavar="FILE",
            default=None,
            help=(
                "summarize a recorded session log instead: rounds, faults, "
                "per-edge delivery anomalies, and recorded-vs-log cost parity"
            ),
        ),
        _json_flag,
    ),
    Command(
        "spans",
        "profile a harness kernel: span tree + self-time hotspots",
        _cmd_spans,
        _arg(
            "--bench",
            default="exhaustive",
            metavar="NAME",
            help="harness benchmark to profile (default: exhaustive)",
        ),
        _arg(
            "--quick",
            action="store_true",
            help="use the benchmark's quick (CI smoke) parameter set",
        ),
        _arg(
            "--top",
            type=int,
            default=10,
            metavar="K",
            help="how many hotspots (by self time) to print (default: 10)",
        ),
        _arg(
            "--max-depth",
            type=int,
            default=None,
            metavar="D",
            help="truncate the printed tree below depth D (0 = roots only)",
        ),
        _arg(
            "--out",
            metavar="FILE",
            default=None,
            help="also write the span-tree JSON payload to FILE",
        ),
        _json_flag,
        _trace_flag,
    ),
    Command(
        "compare",
        "detect perf regressions against BENCH_HISTORY.jsonl",
        _cmd_compare,
        _arg(
            "--history",
            default=DEFAULT_HISTORY_PATH,
            metavar="FILE",
            help=(
                "history file written by bench --history "
                f"(default: {DEFAULT_HISTORY_PATH})"
            ),
        ),
        _arg(
            "--baseline",
            metavar="REF.json",
            default=None,
            help=(
                "compare the newest history record against this reference payload "
                "instead of the history's own baseline window"
            ),
        ),
        _arg(
            "--threshold",
            type=float,
            default=1.25,
            metavar="X",
            help="regression ratio gate: latest > X * baseline median (default: 1.25)",
        ),
        _arg(
            "--min-samples",
            type=int,
            default=3,
            metavar="K",
            help="baseline points needed before a verdict (default: 3)",
        ),
        _arg(
            "--fail-on-regress",
            action="store_true",
            help="exit 1 when any kernel regresses (default: warn only)",
        ),
        _arg(
            "--dashboard",
            metavar="FILE",
            default=None,
            help="write the markdown perf dashboard (sparklines) to FILE",
        ),
        _json_flag,
    ),
    Command(
        "cost-check",
        "check measured bits/rounds against the symbolic cost specs",
        _cmd_cost_check,
        _arg(
            "--quick",
            action="store_true",
            help="use each spec's quick (CI smoke) parameter set",
        ),
        _arg(
            "--only",
            nargs="+",
            metavar="SPEC",
            default=None,
            help="check only these specs (default: every bundled spec)",
        ),
        _json_flag,
    ),
    Command(
        "trace-validate",
        "validate a JSONL run trace (schema v4 or v5)",
        _cmd_trace_validate,
        _arg("file", help="JSONL run trace written with --trace"),
        _arg(
            "--stats",
            action="store_true",
            help="also print per-run event-type counts",
        ),
        _arg(
            "--schema-version",
            type=int,
            default=None,
            metavar="V",
            help="only keep runs whose trace_start declares schema version V",
        ),
        _json_flag,
    ),
    Command(
        "cache",
        "inspect, verify, or garbage-collect the result cache",
        actions=(
            Command(
                "stats",
                "entry counts and bytes, total and per kind",
                _cmd_cache,
                _cache_dir_flag,
                _json_flag,
            ),
            Command(
                "verify",
                "re-digest every entry; corrupt entries exit 1",
                _cmd_cache,
                _cache_dir_flag,
                _arg(
                    "--delete",
                    action="store_true",
                    help="delete corrupt entries instead of failing on them",
                ),
                _json_flag,
            ),
            Command(
                "gc",
                "evict least-recently-used entries down to a size bound",
                _cmd_cache,
                _cache_dir_flag,
                _arg(
                    "--max-bytes",
                    type=int,
                    default=DEFAULT_GC_MAX_BYTES,
                    metavar="B",
                    help=(
                        "evict oldest-used entries until the store fits in B "
                        f"bytes (default: {DEFAULT_GC_MAX_BYTES})"
                    ),
                ),
                _json_flag,
            ),
        ),
    ),
    Command(
        "dash",
        "build the self-contained HTML observability dashboard",
        _cmd_dash,
        _arg(
            "--out",
            metavar="FILE",
            default="dash.html",
            help="dashboard HTML file to write (default: dash.html)",
        ),
        _arg(
            "--dir",
            default=".",
            help="directory holding BENCH_*.json payloads (default: current dir)",
        ),
        _arg(
            "--history",
            metavar="FILE",
            default=None,
            help="BENCH_HISTORY.jsonl for the sparkline section",
        ),
        _arg(
            "--sweep",
            metavar="FILE",
            default=None,
            help="fault-sweep JSON payload (from `repro fault-sweep --out`)",
        ),
        _arg(
            "--spans",
            metavar="FILE",
            default=None,
            help="span tree JSON payload (from `repro spans --out`)",
        ),
        _arg(
            "--session",
            metavar="FILE",
            action="append",
            default=None,
            dest="sessions",
            help="recorded session log (repeatable; from `repro record`)",
        ),
        _arg(
            "--cache",
            metavar="DIR",
            default=None,
            help=(
                "result-cache directory for the cache panel (entry counts, "
                "bytes, per-kind breakdown; from --cache'd runs)"
            ),
        ),
        _arg(
            "--timestamp",
            metavar="STR",
            default=None,
            help=(
                "pinned generated-at string; with equal inputs and an equal "
                "timestamp the output is byte-identical (omit to leave unpinned "
                "-- output is still deterministic)"
            ),
        ),
        _arg(
            "--title",
            default="repro dashboard",
            help="page title (default: repro dashboard)",
        ),
    ),
    Command(
        "record",
        "execute an engine while recording a replayable session log",
        _cmd_record,
        _arg("kind", choices=ENGINE_KINDS, help="which engine to record"),
        _arg(
            "--session",
            metavar="FILE",
            required=True,
            help="session log to write (trace-v5 JSONL; replayable byte-identically)",
        ),
        _arg("--n", type=int, default=8),
        _arg(
            "--algorithm",
            default="flooding",
            help="run kind: harness algorithm (neighbor_exchange flooding boruvka sketch)",
        ),
        _arg(
            "--instance",
            choices=("one_cycle", "two_cycle"),
            default="one_cycle",
            help="run kind: input family (two_cycle needs --split)",
        ),
        _arg("--split", type=int, default=None, help="run kind: two_cycle split"),
        _arg(
            "--rounds",
            type=int,
            default=None,
            help="run kind: round budget (default: the algorithm's)",
        ),
        _arg("--coin-seed", default=None, help="run kind: public-coin seed string"),
        _arg("--bit-flip-rate", type=float, default=0.0),
        _arg("--erasure-rate", type=float, default=0.0),
        _arg("--crash-rate", type=float, default=0.0),
        _arg("--fault-seed", type=int, default=0),
        _arg("--max-crashes", type=int, default=None),
        _arg(
            "--crash-at",
            action="append",
            metavar="V:T",
            default=None,
            help="schedule vertex V to crash in round T (repeatable)",
        ),
        _arg(
            "--max-delay",
            type=int,
            default=0,
            help="network: delay each delivery by 0..D rounds (seeded)",
        ),
        _arg(
            "--duplicate-rate",
            type=float,
            default=0.0,
            help="network: per-delivery duplication probability (seeded)",
        ),
        _arg(
            "--reorder",
            action="store_true",
            help="network: deterministically reorder queued deliveries",
        ),
        _arg("--net-seed", type=int, default=0, help="network RNG seed"),
        _arg("--eps", type=float, default=0.0, help="sampling kind: protocol eps"),
        _arg("--samples", type=int, default=200, help="sampling kind"),
        _arg("--seed", type=int, default=0, help="sampling / fault-sweep seed"),
        _arg(
            "--ns", nargs="+", default=["3", "4", "5"], metavar="N", help="ranks kind: sizes"
        ),
        _arg(
            "--rates",
            nargs="+",
            default=["0.0", "0.1"],
            metavar="R",
            help="fault-sweep kind: rates",
        ),
        _arg(
            "--kinds", nargs="+", default=None, metavar="KIND", help="fault-sweep kind"
        ),
        _arg(
            "--algorithms",
            nargs="+",
            default=["neighbor_exchange", "flooding"],
            metavar="ALGO",
            help="fault-sweep kind",
        ),
        _arg("--trials", type=int, default=4, help="fault-sweep kind"),
        _kernel_flag,
        _workers_flag,
        _json_flag,
    ),
    Command(
        "replay",
        "re-execute a recorded session; exit 4 on any divergence",
        _cmd_replay,
        _arg("file", help="recorded session log"),
        _arg(
            "--verify",
            action="store_true",
            help="print the full comparison report (divergences always exit 4)",
        ),
        _json_flag,
    ),
    Command(
        "rewind",
        "inspect a recorded session step-by-step; branch counterfactuals",
        _cmd_rewind,
        _arg("file", help="recorded session log"),
        _arg(
            "--to", type=int, default=0, metavar="T", help="step to rewind to (0-based)"
        ),
        _arg(
            "--walk",
            type=int,
            default=1,
            metavar="K",
            help="show K steps starting at the rewind point (default: 1)",
        ),
        _arg(
            "--branch",
            metavar="JSON",
            default=None,
            help=(
                "re-execute with these param overrides (JSON object) after "
                "verifying digest prefix agreement up to the rewind point; "
                "a changed past exits 4"
            ),
        ),
        _arg(
            "--out",
            metavar="FILE",
            default=None,
            help="save the branched session log (only written if the prefix check passes)",
        ),
        _json_flag,
    ),
)


def _add_commands(sub, commands: Tuple[Command, ...]) -> None:
    for command in commands:
        p = sub.add_parser(command.name, help=command.help)
        for flag in command.flags:
            flag(p)
        if command.actions:
            actions = p.add_subparsers(dest=f"{command.name}_command", required=True)
            _add_commands(actions, command.actions)
        else:
            p.set_defaults(func=command.run)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run the experiments reproducing Pai & Pemmaraju, PODC 2019.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), COMMANDS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and dispatch; never lets a traceback reach the terminal.

    User errors (bad arguments, invalid instances, unusable cache
    directories -- anything in the :class:`~repro.errors.ReproError`
    taxonomy or a ``ValueError``/``OSError`` from user-supplied paths
    and parameters) print one ``error: ...`` line on stderr and exit 2.
    ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM inside the resilient
    subcommands) exits 130. Genuine bugs still raise: anything outside
    those families is not swallowed.
    """
    from repro.errors import ReplayDivergenceError, ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReplayDivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

