"""repro.parallel -- deterministic sharded execution for the hot loops.

The package has two layers:

* :mod:`repro.parallel.shard` -- pure-data :class:`ShardPlan` objects
  that cut an index range into contiguous, balanced, seed-annotated
  shards, :func:`split_budget` for cooperative budget propagation, and
  :func:`map_units`, the one cached, budgeted shard map and the only
  code that starts a process pool.
* :mod:`repro.parallel.executor` -- :class:`ParallelExecutor`, the
  map engine behind :func:`map_units`: it runs payloads in-process and
  forks a process pool for the rest only once they have run for
  ``POOL_AFTER_SECONDS`` (``workers=1`` is the plain in-process loop),
  with span stitching and metrics.

Each caller of :func:`map_units` folds the results it gets back in unit
order with its own merge (``exhaustive``: min-keyed by ``(error,
index)``; ``sampling``: key-wise count sums; ``fault-sweep``: cells
written by grid coordinates).

Determinism contract: for every entry point threaded through this
package, the final report is a pure function of the problem inputs --
independent of worker count, completion order, and scheduling.
"""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "ParallelExecutor": "repro.parallel.executor",
    "default_workers": "repro.parallel.executor",
    "resolve_workers": "repro.parallel.executor",
    "MappedUnits": "repro.parallel.shard",
    "Shard": "repro.parallel.shard",
    "ShardBudget": "repro.parallel.shard",
    "ShardPlan": "repro.parallel.shard",
    "derive_seed": "repro.parallel.shard",
    "map_units": "repro.parallel.shard",
    "split_budget": "repro.parallel.shard",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
