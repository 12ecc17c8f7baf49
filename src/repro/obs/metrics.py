"""A tiny, dependency-free, thread-safe metrics registry.

One-round/one-bit accounting is the currency of the broadcast congested
clique literature, so the reproduction carries first-class counters for
it: rounds executed, bits broadcast, instances enumerated per second,
fooled-pair counts, simulation bits per turn. The registry is
deliberately minimal -- four metric kinds, a lock, and JSON-friendly
snapshots -- and is **opt-in**: instrumented code paths look up the
process-wide registry via :func:`get_registry` and skip all bookkeeping
when none is installed, so the disabled path costs a single ``None``
check (the acceptance budget is < 5% overhead on the exhaustive-search
hot loop).

Usage::

    from repro.obs import MetricsRegistry, use_registry

    reg = MetricsRegistry()
    with use_registry(reg):
        run_experiment()            # instrumented code records into reg
    print(reg.to_json())

Snapshots are plain dicts (``{"counters": .., "gauges": ..,
"histograms": ..}``) and merge associatively, so per-shard registries can
be combined after parallel runs.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "merge_snapshots",
    "set_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing count (events, bits, instances)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-write-wins instantaneous value (e.g. early-stop round)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming summary of a value distribution, with tail percentiles.

    Count/sum/min/max/mean are maintained in O(1) space. For p50/p90/p99
    the histogram **retains the first** ``sample_cap`` **observations**
    (default :data:`DEFAULT_SAMPLE_CAP` = 4096, bounding memory at
    ~32 KiB per histogram) and reports exact nearest-rank percentiles
    over them: p is the smallest value with at least ``ceil(p/100 * n)``
    values at or below it.

    Past the cap, percentiles are **no longer truncated to the retained
    prefix** (that was a silent bias: a stream whose tail drifts after
    sample 4096 reported stale p99s). Instead the histogram routes the
    full stream -- the retained prefix plus every later finite
    observation -- through a
    :class:`repro.obs.sketches.QuantileSketch`, so p50/p90/p99 describe
    **all** observations: exact nearest-rank up to the cap, fixed-log-bin
    estimates (within ~1.6% relative, clamped to the exact min/max)
    beyond it. In sketch mode ``percentile_samples`` reports the full
    observation count the percentiles describe, not the prefix length.
    Non-finite observations (inf/nan) still update count/sum but are
    excluded from percentile estimation. A ``sample_cap`` of 0 disables
    percentile tracking entirely (mean fallback), as before.

    Histograms reconstructed purely by snapshot *merging* carry no
    retained samples; their percentile fields fall back to the merged
    mean (and ``percentile_samples`` reports 0).
    """

    __slots__ = (
        "name",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_samples",
        "_cap",
        "_sketch",
        "_lock",
    )

    #: Retained-sample cap bounding percentile memory (see class docs).
    DEFAULT_SAMPLE_CAP = 4096

    def __init__(self, name: str, sample_cap: Optional[int] = None):
        if sample_cap is not None and sample_cap < 0:
            raise ValueError(f"sample_cap must be >= 0, got {sample_cap}")
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._cap = self.DEFAULT_SAMPLE_CAP if sample_cap is None else sample_cap
        self._sketch: Optional[Any] = None  # QuantileSketch once the cap overflows
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self._cap:
                self._samples.append(value)
            elif self._cap > 0 and math.isfinite(value):
                if self._sketch is None:
                    # first overflow: seed the sketch with the retained
                    # prefix so it describes the whole stream
                    from repro.obs.sketches import QuantileSketch

                    sketch = QuantileSketch(cap=self._cap)
                    for retained in self._samples:
                        if math.isfinite(retained):
                            sketch.update(retained)
                    self._sketch = sketch
                self._sketch.update(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the whole stream.

        Exact over the retained samples until the cap overflows, a
        quantile-sketch estimate over all observations after. Falls back
        to the mean when nothing is tracked (empty histogram, cap 0, or
        one rebuilt purely from snapshot merging).
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        with self._lock:
            return self._percentile_locked(p)

    def _percentile_locked(self, p: float) -> float:
        if self._sketch is not None:
            estimate = self._sketch.quantile(p)
            if estimate is not None:
                return estimate
        if not self._samples:
            return self._sum / self._count if self._count else 0.0
        ordered = sorted(self._samples)
        rank = math.ceil(p / 100.0 * len(ordered))  # nearest-rank, 1-based
        return ordered[max(0, rank - 1)]

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if self._sketch is not None:
                percentile_samples = self._sketch.count
            else:
                percentile_samples = len(self._samples)
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
                "mean": self._sum / self._count if self._count else 0.0,
                "p50": self._percentile_locked(50),
                "p90": self._percentile_locked(90),
                "p99": self._percentile_locked(99),
                "percentile_samples": percentile_samples,
            }


class Timer:
    """Context manager recording elapsed wall seconds into a histogram.

    The elapsed time is recorded **even when the body raises** -- failed
    runs must still show up in latency histograms, otherwise the tail a
    crash sits in simply vanishes from the profile. The exception is
    never suppressed. Exiting a timer that was never entered is a
    programming error and raises ``RuntimeError`` (previously it would
    have recorded a garbage ``perf_counter() - 0.0`` latency).
    """

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        if self._start is None:
            raise RuntimeError("Timer exited without being entered")
        elapsed = time.perf_counter() - self._start
        self._start = None
        self._histogram.observe(elapsed)
        return False  # record on the exception path, but never swallow it


class MetricsRegistry:
    """A named family of metrics with snapshot / merge / JSON export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors (get-or-create; same name always yields same object) --
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def timer(self, name: str) -> Timer:
        """``with registry.timer("x_seconds"): ...`` -> histogram of runs."""
        return Timer(self.histogram(name))

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable point-in-time copy of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def _check_kind(self, name: str, kind: str) -> None:
        """Reject a metric name already registered under another kind."""
        with self._lock:
            existing = None
            if kind != "counter" and name in self._counters:
                existing = "counter"
            elif kind != "gauge" and name in self._gauges:
                existing = "gauge"
            elif kind != "histogram" and name in self._histograms:
                existing = "histogram"
        if existing is not None:
            raise ValueError(
                f"metric kind mismatch for {name!r}: snapshot says {kind}, "
                f"registry already holds a {existing}"
            )

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one (associative:
        counters/histogram-sums add, gauges last-write-wins, extremes
        widen).

        Raises ``ValueError`` when the snapshot disagrees with this
        registry about a metric's *kind* (the same name appearing as,
        say, a counter here and a histogram there), or when a snapshot
        value has the wrong shape for its section -- silently folding
        mismatched kinds would corrupt both series.

        Merged histograms carry no retained percentile samples, so
        their p50/p90/p99 fall back to the merged mean (see
        :class:`Histogram`).
        """
        for name, value in snapshot.get("counters", {}).items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"metric kind mismatch for {name!r}: counter value is "
                    f"{type(value).__name__}, expected int"
                )
            self._check_kind(name, "counter")
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"metric kind mismatch for {name!r}: gauge value is "
                    f"{type(value).__name__}, expected number"
                )
            self._check_kind(name, "gauge")
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            if not isinstance(summary, Mapping):
                raise ValueError(
                    f"metric kind mismatch for {name!r}: histogram summary is "
                    f"{type(summary).__name__}, expected object"
                )
            self._check_kind(name, "histogram")
            hist = self.histogram(name)
            count = int(summary.get("count", 0))
            if count == 0:
                continue
            with hist._lock:
                hist._count += count
                hist._sum += summary.get("sum", 0.0)
                for bound, better in (("min", min), ("max", max)):
                    incoming = summary.get(bound)
                    current = getattr(hist, f"_{bound}")
                    setattr(
                        hist,
                        f"_{bound}",
                        incoming if current is None else better(current, incoming),
                    )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge snapshot dicts (e.g. from parallel shards) into one."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge_snapshot(snap)
    return merged.snapshot()


# ----------------------------------------------------------------------
# the process-wide opt-in sinks
# ----------------------------------------------------------------------
class ProcessSink:
    """One process-wide opt-in sink: ``get``, ``set`` and scoped ``use``.

    The metrics registry, span recorder and cost ledger each bind one.
    Instrumented call sites read ``get()`` once per run and keep the
    result in a local; ``None`` means the sink is off and costs nothing
    further. ``set`` returns the previous sink so callers can restore
    it; ``use`` installs one for a ``with`` block.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: Any = None
        self._lock = threading.Lock()

    def get(self) -> Any:
        return self.value

    def set(self, value: Any) -> Any:
        with self._lock:
            previous, self.value = self.value, value
        return previous

    @contextmanager
    def use(self, value: Any) -> Iterator[Any]:
        previous = self.set(value)
        try:
            yield value
        finally:
            self.set(previous)


_registry = ProcessSink()
#: The installed :class:`MetricsRegistry` (None: metrics are off).
get_registry, set_registry, use_registry = _registry.get, _registry.set, _registry.use
