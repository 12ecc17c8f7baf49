"""The deterministic fan-out engine behind every ``--workers N`` flag.

:class:`ParallelExecutor` maps a **module-level, picklable** task
function over a list of payloads. Its one caller is
:func:`repro.parallel.shard.map_units`, which adds the shard cache and
the budget; the callers of ``map_units`` fold the results themselves.

``--workers N`` is a ceiling, not an order. A map first runs payloads
in-process, in payload order, exactly as a plain ``for`` loop would.
Only once :data:`POOL_AFTER_SECONDS` of wall time has passed since the
map started, and at least two payloads are left, does it fork a
:class:`concurrent.futures.ProcessPoolExecutor` of ``min(N, payloads
left)`` workers for the rest (the ski-rental rule: rent until you have
paid what buying costs). So:

* ``workers <= 1`` is the plain in-process loop: no pool, no pickling,
  no clock read per payload -- the serial entry points stay
  bit-identical.
* A map whose work is shorter than the threshold never pays for a pool.
  A longer one loses at most about ``POOL_AFTER_SECONDS * (1 -
  1/workers)`` of wall time against starting the pool at once, and its
  forked workers start with every per-process memo the in-process
  payloads filled (the sampler's run memo, the search's class scores).
* Results are *returned* in payload order. ``on_result`` fires in
  payload order for the in-process prefix, then in completion order
  for the pooled rest (callers use it to store completed shards and
  report progress, both order-invariant by construction). Every index
  it sees, like every shard index in a span, is the payload's index in
  the whole map.

Observability mirrors the rest of the repo and is fully opt-in:

* **Spans** -- the whole map runs under a ``parallel.map`` span with one
  ``parallel.shard`` child per task; the map span's ``pooled``
  attribute counts the payloads handed to a pool (0: none, the map ran
  in-process). An in-process task's own spans nest naturally; each
  pooled worker records its own span tree, which is shipped back and
  **stitched** under the matching ``parallel.shard`` node, so ``repro
  spans`` shows one tree spanning the whole fan-out.
* **Metrics** -- ``parallel.shards_dispatched`` / ``_completed``
  counters, a ``parallel.shard_seconds`` histogram of task times, and a
  ``parallel.worker_utilization`` gauge (busy seconds / (processes that
  ran tasks x wall seconds): the pool's workers, or the parent alone
  when no pool started).

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

__all__ = ["ParallelExecutor", "default_workers", "resolve_workers"]

#: In-process wall time after which a map with ``workers > 1`` forks a
#: pool for the payloads left. Measured on a 2-vCPU Xeon (Python 3.11,
#: fork start method): a pool costs ~25-45 ms to import
#: ``concurrent.futures.process`` and ``multiprocessing`` and ~13-17 ms
#: to fork and join 2 workers, and each worker then re-fills the memos
#: its parent had not filled yet. At the n = 7 search and sampling
#: sizes (0.04-0.11 s of shard work) that made ``--workers 2`` ~0.1 s
#: slower than ``--workers 1``. 0.2 s keeps every such map in-process
#: and bounds the loss of a map that does need the pool to
#: 0.2 * (1 - 1/2) = 0.1 s at 2 workers.
POOL_AFTER_SECONDS = 0.2


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
    """Deterministic fan-out: in-process first, a process pool once it pays.

    Parameters
    ----------
    workers:
        The most processes a map may use. ``<= 1`` means the in-process
        loop (the default, and the path every golden test pins); above
        1 a map forks a pool only after :data:`POOL_AFTER_SECONDS` of
        in-process work.
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
        order in-process, completion order for pooled payloads).
        ``fn`` must be a module-level function when ``workers > 1``.
        """
        metrics = self._registry()
        wall_start = time.perf_counter()
        with span(span_name, workers=self.workers, shards=len(payloads)) as map_span:
            if metrics is not None:
                metrics.counter("parallel.shards_dispatched").inc(len(payloads))
            results = []
            for index, payload in enumerate(payloads):
                if (
                    self.workers > 1
                    and len(payloads) - index > 1
                    and time.perf_counter() - wall_start >= POOL_AFTER_SECONDS
                ):
                    break
                with span("parallel.shard", shard=index):
                    start = time.perf_counter()
                    value = fn(payload)
                    elapsed = time.perf_counter() - start
                results.append((value, elapsed, None))
                self._completed(index, value, elapsed, on_result, metrics)
            pooled = len(payloads) - len(results)
            if pooled:
                results += self._map_pooled(fn, payloads, len(results), on_result, metrics)
            if map_span is not None:
                map_span.set_attr("pooled", pooled)
        wall = time.perf_counter() - wall_start
        if metrics is not None:
            busy = sum(r[1] for r in results)
            processes = min(self.workers, pooled) if pooled else 1
            metrics.gauge("parallel.worker_utilization").set(
                busy / (processes * wall) if wall > 0 else 0.0
            )
        return [value for value, _elapsed, _roots in results]

    # ------------------------------------------------------------------
    @staticmethod
    def _completed(index, value, elapsed, on_result, metrics) -> None:
        """Record one finished payload, then hand it to ``on_result``."""
        if metrics is not None:
            metrics.counter("parallel.shards_completed").inc()
            metrics.histogram("parallel.shard_seconds").observe(elapsed)
        if on_result is not None:
            on_result(index, value)

    def _map_pooled(self, fn, payloads, first, on_result, metrics):
        """Run ``payloads[first:]`` over a pool; results in payload order."""
        # Imported here, not at module level: concurrent.futures.process
        # loads multiprocessing, which an in-process map or a cache hit
        # never uses.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        recorder = get_recorder()
        capture = recorder is not None
        results: List[Optional[tuple]] = [None] * (len(payloads) - first)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(results))
        ) as pool:
            try:
                futures = {
                    pool.submit(_timed_task, fn, capture, payloads[index]): index
                    for index in range(first, len(payloads))
                }
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        value, elapsed, roots = future.result()
                        results[index - first] = (value, elapsed, roots)
                        if recorder is not None:
                            shard_span = recorder.start(
                                "parallel.shard", shard=index, worker_seconds=elapsed
                            )
                            if roots:
                                shard_span.children.extend(
                                    _revive_span(root) for root in roots
                                )
                            recorder.finish(shard_span)
                        self._completed(index, value, elapsed, on_result, metrics)
            except BaseException:
                # Cancel what has not started; let running tasks finish
                # (they are pure functions whose results we now discard),
                # then propagate; finished shards were already handed
                # to on_result.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results
