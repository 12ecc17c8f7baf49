"""Run one ``repro.cli`` request with per-layer timers; write a JSON record.

    python traced_main.py RECORD.json <repro.cli arguments...>

The program is measured from outside. A meta-path hook wraps each
layer's public entry points right after their module is first imported,
so imports happen in the same order and place as in an untraced run.
The wrappers keep a stack of timers and add up *self* time per layer (a
call's wall time minus the time spent in wrapped calls it made). The
hook also installs a span recorder through the public
``repro.obs.spans.set_recorder``, so the spans the program already
emits give the splits inside a layer. Spans are folded into per-name
totals as each root span closes, which keeps memory flat.

The record holds the ``time.perf_counter`` readings at entry to and exit
from ``repro.cli.main`` (CLOCK_MONOTONIC on Linux, so the parent can
place them on its own timeline), the per-layer self times and call
counts, work counts, span totals and the number of loaded modules. Only
this process writes it: pool workers forked from it inherit the
wrappers but never reach the write.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_stack: List[List[float]] = []
_frames: Dict[str, List[float]] = {}
_counts: Dict[str, int] = {}
_spans: Dict[str, List[float]] = {}


def _bump(name: str, amount: int = 1) -> None:
    _counts[name] = _counts.get(name, 0) + amount


def _timed(layer: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped to add its self time to ``layer``.

    ``count(args, kwargs, result)`` may bump work counters.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0.0]  # time spent in wrapped callees
        _stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            _stack.pop()
            if _stack:
                _stack[-1][0] += elapsed
            totals = _frames.setdefault(layer, [0.0, 0])
            totals[0] += elapsed - frame[0]
            totals[1] += 1
        if count is not None:
            count(args, kwargs, result)
        return result

    return wrapper


def _count_lookup(_args, _kwargs, result) -> None:
    _bump("cache.misses" if result is None else "cache.hits")


def _count_shards(args, kwargs, _result) -> None:
    payloads = args[2] if len(args) > 2 else kwargs["payloads"]
    _bump("parallel.shards", len(payloads))


def _count_cells(_args, _kwargs, report) -> None:
    _bump("resilience.cells", sum(len(curve.points) for curve in report.curves))


def _wrap(owner: Any, attr: str, layer: str, count: Optional[Callable] = None) -> None:
    setattr(owner, attr, _timed(layer, getattr(owner, attr), count))


def _patch_spans(module) -> None:
    class FoldingRecorder(module.SpanRecorder):
        def finish(self, node) -> None:
            super().finish(node)
            if self.current is None:
                for root in self.roots:
                    for span in root.walk():
                        totals = _spans.setdefault(span.name, [0, 0.0])
                        totals[0] += 1
                        # A pooled shard's parent-side span is empty; the
                        # executor records the worker's task time on it.
                        totals[1] += span.attrs.get("worker_seconds", span.duration_seconds)
                self.reset()

    module.set_recorder(FoldingRecorder())


# module -> patch applied right after the module body has run
PATCHES: Dict[str, Callable[[Any], None]] = {
    "repro.obs.spans": _patch_spans,
    "repro.engine.core": lambda m: _wrap(m, "execute", "engine"),
    "repro.cache.keys": lambda m: (
        _wrap(m, "kind_fingerprint", "cache.fingerprint"),
        _wrap(m, "request_key", "cache.key"),
    ),
    "repro.cache.store": lambda m: (
        _wrap(m.ResultCache, "get", "cache.get", _count_lookup),
        _wrap(m.ResultCache, "put", "cache.put"),
    ),
    "repro.parallel.executor": lambda m: _wrap(
        m.ParallelExecutor, "map", "parallel.map", _count_shards
    ),
    "repro.lowerbounds.exhaustive": lambda m: _wrap(
        m, "universal_bound_id_oblivious", "lowerbounds.search"
    ),
    "repro.information.sampling": lambda m: _wrap(
        m, "estimate_protocol_information", "information.estimate"
    ),
    "repro.partitions.matrices": lambda m: (
        _wrap(m, "m_matrix_rank", "partitions.rank"),
        _wrap(m, "e_matrix_rank", "partitions.rank"),
        _wrap(m, "build_m_matrix", "partitions.build"),
        _wrap(m, "build_e_matrix", "partitions.build"),
    ),
    "repro.resilience.harness": lambda m: _wrap(
        m, "fault_sweep", "resilience.sweep", _count_cells
    ),
    "repro.core.simulator": lambda m: _wrap(m.Simulator, "run", "simulator.run"),
}


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds the patched modules normally, then patches them once loaded."""

    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module) -> None:
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    sys.meta_path.insert(0, _PatchingFinder())
    from repro import cli

    run = _timed("cli.main", cli.main)
    main_start = time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    main_end = time.perf_counter()
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "main_start": main_start,
                "main_end": main_end,
                "frames": _frames,
                "counts": _counts,
                "spans": _spans,
                "modules_loaded": len(sys.modules),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
