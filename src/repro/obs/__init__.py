"""Observability: metrics, spans, structured run traces, benchmarks.

Five small, dependency-free layers:

* :mod:`repro.obs.metrics` -- a thread-safe Counter/Gauge/Histogram/Timer
  registry (histograms carry p50/p90/p99 tail percentiles) with
  snapshot/merge/JSON export, installed process-wide (and opt-in) via
  :func:`use_registry`;
* :mod:`repro.obs.spans` -- a hierarchical span profiler
  (:class:`SpanRecorder`, the :func:`span` context manager/decorator)
  answering *where* time goes: run -> round -> broadcast/deliver trees
  with self-vs-cumulative attribution, exported as span-tree JSON and
  as trace-v3 ``span_start``/``span_end`` events;
* :mod:`repro.obs.trace` -- a JSONL run-trace writer (one event per
  line, run-id + seq + timestamp), the machine-readable counterpart to
  the human tables in :mod:`repro.core.tracing`;
* :mod:`repro.obs.bench` -- the experiment registry (the only
  definition of each E/A/R/P/O experiment) and the
  :class:`BenchmarkHarness` that runs it under a fresh registry and writes
  schema-versioned ``BENCH_<name>.json`` perf records
  (:mod:`repro.obs.schema` documents and validates the format);
* :mod:`repro.obs.regress` -- the ``BENCH_HISTORY.jsonl`` history store
  and the median+MAD perf-regression detector behind ``repro bench
  --history``, ``repro compare``, and the generated ``docs/PERF.md``;
* :mod:`repro.obs.sketches` -- deterministic, *mergeable* population
  summaries (quantile / top-k / moments sketches) whose states are pure
  functions of the observed multiset, so sharded sweeps fold to
  bit-identical populations for any worker count;
* :mod:`repro.obs.stream` -- a bounded, subscribable in-process
  :class:`EventBus` (opt-in via :func:`use_bus`) that instrumented call
  sites publish live progress events to;
* :mod:`repro.obs.dash` -- the self-contained HTML dashboard behind
  ``repro dash``, unifying bench history, span hot paths, cost and
  population summaries in one dependency-free file.
"""

from repro import lazy_getattr

# Every name is re-exported lazily (PEP 562): a command that only needs
# the metrics registry must not pay for the bench harness, the history
# store or the dashboard, and importing a submodule here would also tie
# this package's import order to repro.core, which imports
# repro.obs.metrics at class-definition time.
_LAZY_EXPORTS = {
    "BenchmarkHarness": "repro.obs.bench",
    "BenchmarkResult": "repro.obs.bench",
    "BenchmarkSpec": "repro.obs.bench",
    "bench_names": "repro.obs.bench",
    "load_bench_payloads": "repro.obs.bench",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "Timer": "repro.obs.metrics",
    "get_registry": "repro.obs.metrics",
    "merge_snapshots": "repro.obs.metrics",
    "set_registry": "repro.obs.metrics",
    "use_registry": "repro.obs.metrics",
    "HISTORY_SCHEMA_VERSION": "repro.obs.regress",
    "RegressionFinding": "repro.obs.regress",
    "append_history": "repro.obs.regress",
    "current_git_sha": "repro.obs.regress",
    "detect_regressions": "repro.obs.regress",
    "history_record": "repro.obs.regress",
    "read_history": "repro.obs.regress",
    "render_perf_dashboard": "repro.obs.regress",
    "sparkline": "repro.obs.regress",
    "validate_history_record": "repro.obs.regress",
    "BENCH_SCHEMA_VERSION": "repro.obs.schema",
    "validate_bench_payload": "repro.obs.schema",
    "SPAN_TREE_SCHEMA_VERSION": "repro.obs.spans",
    "Span": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "aggregate_spans": "repro.obs.spans",
    "get_recorder": "repro.obs.spans",
    "render_hotspots": "repro.obs.spans",
    "render_span_tree": "repro.obs.spans",
    "set_recorder": "repro.obs.spans",
    "span": "repro.obs.spans",
    "use_recorder": "repro.obs.spans",
    "validate_span_tree_payload": "repro.obs.spans",
    "Event": "repro.obs.stream",
    "EventBus": "repro.obs.stream",
    "get_bus": "repro.obs.stream",
    "line_printer": "repro.obs.stream",
    "set_bus": "repro.obs.stream",
    "use_bus": "repro.obs.stream",
    "TRACE_SCHEMA_VERSION": "repro.obs.trace",
    "RunTrace": "repro.obs.trace",
    "read_trace": "repro.obs.trace",
    "trace_stats": "repro.obs.trace",
    "validate_trace_events": "repro.obs.trace",
    "MomentsSketch": "repro.obs.sketches",
    "QuantileSketch": "repro.obs.sketches",
    "TopKSketch": "repro.obs.sketches",
    "merge_population": "repro.obs.sketches",
    "population_summary": "repro.obs.sketches",
    "sketch_from_dict": "repro.obs.sketches",
    "build_dashboard": "repro.obs.dash",
    "validate_dashboard_html": "repro.obs.dash",
}

__getattr__ = lazy_getattr(globals())

#: Where ``repro bench --history`` appends by default. Defined here, not
#: in repro.obs.regress, so the CLI parser can print it without loading
#: the history store.
DEFAULT_HISTORY_PATH = "BENCH_HISTORY.jsonl"

__all__ = sorted([*_LAZY_EXPORTS, "DEFAULT_HISTORY_PATH"])
