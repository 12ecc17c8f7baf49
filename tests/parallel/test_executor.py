"""ParallelExecutor: serial/pooled equivalence, spans, metrics, failures."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, use_recorder
from repro.parallel import ParallelExecutor, resolve_workers
from repro.parallel.executor import default_workers


# -- module-level task functions (pooled workers must pickle them) -----
def _square(x):
    return x * x


def _spanned_square(x):
    from repro.obs.spans import span

    with span("task.square", x=x):
        return x * x


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
def test_pooled_map_matches_serial(workers):
    payloads = list(range(7))
    serial = ParallelExecutor(workers=1).map(_square, payloads)
    pooled = ParallelExecutor(workers=workers).map(_square, payloads)
    assert pooled == serial  # results in payload order, not completion order


def test_pooled_on_result_sees_every_shard_once():
    seen = {}
    ParallelExecutor(workers=2).map(
        _square, [1, 2, 3, 4], on_result=lambda i, v: seen.__setitem__(i, v)
    )
    assert seen == {0: 1, 1: 4, 2: 9, 3: 16}


def test_single_payload_short_circuits_to_serial():
    # len(payloads) <= 1 never spawns a pool regardless of workers.
    assert ParallelExecutor(workers=8).map(_square, [5]) == [25]
    assert ParallelExecutor(workers=8).map(_square, []) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_task_exception_propagates(workers):
    with pytest.raises(RuntimeError, match="shard 2 exploded"):
        ParallelExecutor(workers=workers).map(_boom, [0, 1, 2, 3])


@pytest.mark.parametrize("workers", [1, 2])
def test_metrics_record_dispatch_and_completion(workers):
    registry = MetricsRegistry()
    ParallelExecutor(workers=workers, metrics=registry).map(_square, [1, 2, 3])
    assert registry.counter("parallel.shards_dispatched").value == 3
    assert registry.counter("parallel.shards_completed").value == 3
    assert registry.histogram("parallel.shard_seconds").count == 3
    utilization = registry.gauge("parallel.worker_utilization").value
    assert 0.0 <= utilization <= 1.0 + 1e-9


@pytest.mark.parametrize("workers", [1, 2])
def test_span_tree_covers_every_shard(workers):
    recorder = SpanRecorder()
    with use_recorder(recorder):
        ParallelExecutor(workers=workers).map(_spanned_square, [1, 2, 3])
    roots = recorder.roots
    assert [r.name for r in roots] == ["parallel.map"]
    shard_spans = [c for c in roots[0].children if c.name == "parallel.shard"]
    assert len(shard_spans) == 3
    # worker-side spans are stitched under their shard in both paths
    for shard_span in shard_spans:
        names = [child.name for child in shard_span.children]
        assert "task.square" in names
