"""The deterministic fan-out engine behind every ``--workers N`` flag.

:class:`ParallelExecutor` maps a **module-level, picklable** task
function over a list of payloads. Its one caller is
:func:`repro.parallel.shard.map_units`, which adds the shard cache and
the budget; the callers of ``map_units`` fold the results themselves.

* ``workers <= 1`` runs everything in-process, in payload order, with no
  pool, no pickling, and no semantic difference from a plain ``for``
  loop -- the serial entry points stay bit-identical.
* ``workers > 1`` dispatches through a
  :class:`concurrent.futures.ProcessPoolExecutor` and streams results
  back as they complete. Results are *returned* in payload order; the
  optional ``on_result`` callback fires in completion order (callers use
  it to store completed shards and publish progress, both of which are
  order-invariant by construction).

Observability mirrors the rest of the repo and is fully opt-in:

* **Spans** -- the whole map runs under a ``parallel.map`` span with one
  ``parallel.shard`` child per task. In the serial path the task's own
  spans nest naturally; in the pooled path each worker records its own
  span tree, which is shipped back and **stitched** under the matching
  ``parallel.shard`` node, so ``repro spans`` shows one tree spanning
  the whole fan-out.
* **Metrics** -- ``parallel.shards_dispatched`` / ``_completed``
  counters, a ``parallel.shard_seconds`` histogram of worker-side task
  times, and a ``parallel.worker_utilization`` gauge (busy seconds /
  (workers x wall seconds)).

Interrupt/budget contract: a ``KeyboardInterrupt`` or any exception from
a task cancels all not-yet-started tasks (``cancel_futures=True``) and
propagates; completed results already handed to ``on_result`` stay
valid, which is what lets callers keep every shard that finished.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import Span, SpanRecorder, get_recorder, span, use_recorder
from repro.obs.stream import get_bus

__all__ = ["ParallelExecutor", "default_workers", "resolve_workers"]


def default_workers() -> int:
    """A sensible pool size for this machine: ``os.cpu_count()`` (min 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``--workers`` value: None/0 -> auto, negatives invalid."""
    if workers is None or workers == 0:
        return default_workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 1 (or 0 for auto), got {workers}")
    return workers


def _timed_task(fn: Callable[[Any], Any], capture_spans: bool, payload: Any):
    """Worker-side wrapper: time the task and optionally record its spans.

    Returns ``(value, elapsed_seconds, span_roots_or_None)``. Runs in the
    worker process, so ``fn`` and ``payload`` must be picklable; the
    returned span roots are plain JSON-ready dicts.
    """
    start = time.perf_counter()
    if capture_spans:
        recorder = SpanRecorder()
        with use_recorder(recorder):
            value = fn(payload)
        roots = [root.as_dict() for root in recorder.roots]
    else:
        value = fn(payload)
        roots = None
    return value, time.perf_counter() - start, roots


def _revive_span(node: Dict[str, Any]) -> Span:
    """Rebuild a display-only :class:`Span` from a worker's payload dict.

    Timing is reconstructed as ``[0, duration)`` on a local axis: the
    stitched subtree keeps its internal proportions (duration/self/children)
    without pretending to share the parent process's clock.
    """
    revived = Span(str(node.get("name", "?")), span_id=-1, attrs=node.get("attrs"))
    revived.start = 0.0
    duration = node.get("duration_seconds", 0.0)
    revived.end = float(duration) if isinstance(duration, (int, float)) else 0.0
    revived.children = [
        _revive_span(child)
        for child in node.get("children", [])
        if isinstance(child, dict)
    ]
    return revived


class ParallelExecutor:
    """Deterministic process-pool fan-out with an in-process serial path.

    Parameters
    ----------
    workers:
        Pool size. ``<= 1`` means the in-process serial path (the
        default, and the path every golden test pins).
    metrics:
        Explicit registry; falls back to the process-wide one
        (:func:`repro.obs.get_registry`), and records nothing when
        neither is installed.
    """

    def __init__(self, workers: int = 1, metrics: Optional[MetricsRegistry] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._metrics = metrics

    # ------------------------------------------------------------------
    def _registry(self) -> Optional[MetricsRegistry]:
        return self._metrics if self._metrics is not None else get_registry()

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
        span_name: str = "parallel.map",
    ) -> List[Any]:
        """Apply ``fn`` to every payload; return results in payload order.

        ``on_result(index, value)`` fires as results arrive (payload
        order in the serial path, completion order in the pooled path).
        ``fn`` must be a module-level function when ``workers > 1``.

        When an :class:`repro.obs.stream.EventBus` is installed the map
        publishes one ``parallel.shard`` event per completed shard (in
        the same order ``on_result`` fires) and a final ``parallel.map``
        event; with no bus the only cost is one ``None`` check.
        """
        metrics = self._registry()
        bus = get_bus()
        wall_start = time.perf_counter()
        with span(span_name, workers=self.workers, shards=len(payloads)):
            if metrics is not None:
                metrics.counter("parallel.shards_dispatched").inc(len(payloads))
            if self.workers <= 1 or len(payloads) <= 1:
                results = self._map_serial(fn, payloads, on_result, metrics, bus)
            else:
                results = self._map_pooled(fn, payloads, on_result, metrics, bus)
        if bus is not None:
            bus.publish(
                "parallel.map",
                {
                    "span": span_name,
                    "shards": len(payloads),
                    "workers": self.workers,
                    "wall_seconds": time.perf_counter() - wall_start,
                },
            )
        if metrics is not None:
            wall = time.perf_counter() - wall_start
            busy = sum(r[1] for r in results)
            effective = min(self.workers, max(1, len(payloads)))
            metrics.gauge("parallel.worker_utilization").set(
                busy / (effective * wall) if wall > 0 else 0.0
            )
        return [value for value, _elapsed, _roots in results]

    # ------------------------------------------------------------------
    def _map_serial(self, fn, payloads, on_result, metrics, bus=None):
        results = []
        for index, payload in enumerate(payloads):
            with span("parallel.shard", shard=index):
                start = time.perf_counter()
                value = fn(payload)
                elapsed = time.perf_counter() - start
            results.append((value, elapsed, None))
            if metrics is not None:
                metrics.counter("parallel.shards_completed").inc()
                metrics.histogram("parallel.shard_seconds").observe(elapsed)
            if bus is not None:
                bus.publish(
                    "parallel.shard", {"shard": index, "wall_seconds": elapsed}
                )
            if on_result is not None:
                on_result(index, value)
        return results

    def _map_pooled(self, fn, payloads, on_result, metrics, bus=None):
        # Imported here, not at module level: concurrent.futures.process
        # loads multiprocessing, which a serial run or a cache hit never
        # uses.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        capture = get_recorder() is not None
        recorder = get_recorder()
        results: List[Optional[tuple]] = [None] * len(payloads)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(payloads))
        ) as pool:
            try:
                futures = {
                    pool.submit(_timed_task, fn, capture, payload): index
                    for index, payload in enumerate(payloads)
                }
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        value, elapsed, roots = future.result()
                        results[index] = (value, elapsed, roots)
                        if metrics is not None:
                            metrics.counter("parallel.shards_completed").inc()
                            metrics.histogram("parallel.shard_seconds").observe(
                                elapsed
                            )
                        if recorder is not None:
                            shard_span = recorder.start(
                                "parallel.shard", shard=index, worker_seconds=elapsed
                            )
                            if roots:
                                shard_span.children.extend(
                                    _revive_span(root) for root in roots
                                )
                            recorder.finish(shard_span)
                        if bus is not None:
                            bus.publish(
                                "parallel.shard",
                                {"shard": index, "wall_seconds": elapsed},
                            )
                        if on_result is not None:
                            on_result(index, value)
            except BaseException:
                # Cancel what has not started; let running tasks finish
                # (they are pure functions whose results we now discard),
                # then propagate; finished shards were already handed
                # to on_result.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results  # type: ignore[return-value]
