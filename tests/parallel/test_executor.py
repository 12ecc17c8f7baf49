"""ParallelExecutor: serial/pooled equivalence, spans, metrics, failures.

Tests of the pooled path use the ``pool_at_once`` fixture: it sets the
in-process threshold to 0, so even these tiny maps fork a pool, and
records every pool started so each test can assert that one ran.
"""

import os
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, use_recorder
from repro.obs.stream import EventBus, use_bus
from repro.parallel import ParallelExecutor, resolve_workers
from repro.parallel import executor
from repro.parallel.executor import default_workers


# -- module-level task functions (pooled workers must pickle them) -----
def _square(x):
    return x * x


def _spanned_square(x):
    from repro.obs.spans import span

    with span("task.square", x=x):
        return x * x


def _napping_pid(x):
    time.sleep(0.03)
    return x, os.getpid()


def _boom(x):
    if x == 2:
        raise RuntimeError("shard 2 exploded")
    return x


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(None) == default_workers()
    assert resolve_workers(0) == default_workers()
    with pytest.raises(ValueError):
        resolve_workers(-1)
    with pytest.raises(ValueError):
        ParallelExecutor(workers=0)


def test_serial_map_preserves_payload_order():
    seen = []
    out = ParallelExecutor(workers=1).map(
        _square, [3, 1, 2], on_result=lambda i, v: seen.append((i, v))
    )
    assert out == [9, 1, 4]
    assert seen == [(0, 9), (1, 1), (2, 4)]  # payload order in serial path


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_map_matches_serial(workers, pool_at_once):
    payloads = list(range(7))
    serial = ParallelExecutor(workers=1).map(_square, payloads)
    pooled = ParallelExecutor(workers=workers).map(_square, payloads)
    assert pooled == serial  # results in payload order, not completion order
    assert pool_at_once == [workers]


def test_pooled_on_result_sees_every_shard_once(pool_at_once):
    seen = {}
    ParallelExecutor(workers=2).map(
        _square, [1, 2, 3, 4], on_result=lambda i, v: seen.__setitem__(i, v)
    )
    assert seen == {0: 1, 1: 4, 2: 9, 3: 16}
    assert pool_at_once == [2]


def test_single_payload_short_circuits_to_serial(pool_at_once):
    # A pool of one process runs nothing in parallel, so even with the
    # threshold at 0 a lone payload runs in-process.
    assert ParallelExecutor(workers=8).map(_square, [5]) == [25]
    assert ParallelExecutor(workers=8).map(_square, []) == []
    assert pool_at_once == []


def test_short_map_runs_in_process(pools_started):
    # At the default threshold a map this small never pays for a pool,
    # and its utilization counts the one process that ran it.
    registry = MetricsRegistry()
    recorder = SpanRecorder()
    with use_recorder(recorder):
        out = ParallelExecutor(workers=2, metrics=registry).map(_napping_pid, [1, 2, 3])
    assert out == [(x, os.getpid()) for x in (1, 2, 3)]
    assert pools_started == []
    assert recorder.roots[0].attrs["pooled"] == 0
    assert registry.gauge("parallel.worker_utilization").value > 0.6


def test_map_splits_between_in_process_prefix_and_pool(monkeypatch, pools_started):
    # Each payload naps 30 ms, so with a 50 ms threshold the first one
    # or two run in-process and the pool takes the rest.
    monkeypatch.setattr(executor, "POOL_AFTER_SECONDS", 0.05)
    payloads = list(range(6))
    seen, bus_shards = [], []
    recorder, bus = SpanRecorder(), EventBus()
    with use_recorder(recorder), use_bus(bus), bus.subscription(
        lambda event: bus_shards.append(event.payload["shard"]), ["parallel.shard"]
    ):
        out = ParallelExecutor(workers=2).map(
            _napping_pid, payloads, on_result=lambda i, v: seen.append(i)
        )
    map_span = recorder.roots[0]
    pooled = map_span.attrs["pooled"]
    prefix = len(payloads) - pooled
    assert 1 <= prefix < len(payloads) - 1
    assert pools_started == [2]
    assert [value for value, _pid in out] == payloads  # the serial map's results
    assert [pid == os.getpid() for _value, pid in out] == [True] * prefix + [False] * pooled
    # every index global, each exactly once, the prefix in payload order
    assert sorted(seen) == payloads and seen[:prefix] == list(range(prefix))
    assert bus_shards == seen
    shard_spans = [c.attrs["shard"] for c in map_span.children if c.name == "parallel.shard"]
    assert shard_spans == seen


@pytest.mark.parametrize("workers", [1, 2])
def test_task_exception_propagates(workers, pool_at_once):
    with pytest.raises(RuntimeError, match="shard 2 exploded"):
        ParallelExecutor(workers=workers).map(_boom, [0, 1, 2, 3])
    assert pool_at_once == ([2] if workers > 1 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_metrics_record_dispatch_and_completion(workers, pool_at_once):
    registry = MetricsRegistry()
    ParallelExecutor(workers=workers, metrics=registry).map(_square, [1, 2, 3])
    assert registry.counter("parallel.shards_dispatched").value == 3
    assert registry.counter("parallel.shards_completed").value == 3
    assert registry.histogram("parallel.shard_seconds").count == 3
    utilization = registry.gauge("parallel.worker_utilization").value
    assert 0.0 <= utilization <= 1.0 + 1e-9
    assert len(pool_at_once) == (workers > 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_span_tree_covers_every_shard(workers, pool_at_once):
    recorder = SpanRecorder()
    with use_recorder(recorder):
        ParallelExecutor(workers=workers).map(_spanned_square, [1, 2, 3])
    roots = recorder.roots
    assert [r.name for r in roots] == ["parallel.map"]
    assert roots[0].attrs["pooled"] == (3 if workers > 1 else 0)
    shard_spans = [c for c in roots[0].children if c.name == "parallel.shard"]
    assert len(shard_spans) == 3
    # worker-side spans are stitched under their shard in both paths
    for shard_span in shard_spans:
        names = [child.name for child in shard_span.children]
        assert "task.square" in names
