"""repro.parallel -- deterministic sharded execution for the hot loops.

The package has three layers, each usable on its own:

* :mod:`repro.parallel.shard` -- pure-data :class:`ShardPlan` objects
  that cut an index range into contiguous, balanced, seed-annotated
  shards, :func:`split_budget` for cooperative budget propagation, and
  :func:`map_units`, the one cached, budgeted shard map.
* :mod:`repro.parallel.merge` -- the order-invariant :class:`Monoid`
  merges every fan-out reduces with (min-keyed, count-sum, max, concat).
* :mod:`repro.parallel.executor` -- :class:`ParallelExecutor`, the
  process-pool map/reduce engine with a bit-identical in-process serial
  path at ``workers=1``, span stitching, and metrics.

Determinism contract: for every entry point threaded through this
package, the final report is a pure function of the problem inputs --
independent of worker count, completion order, and scheduling.
"""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "ParallelExecutor": "repro.parallel.executor",
    "default_workers": "repro.parallel.executor",
    "resolve_workers": "repro.parallel.executor",
    "MAX_INT": "repro.parallel.merge",
    "MIN_KEYED": "repro.parallel.merge",
    "Monoid": "repro.parallel.merge",
    "SUM_COUNTS": "repro.parallel.merge",
    "merge_concat": "repro.parallel.merge",
    "merge_counts": "repro.parallel.merge",
    "merge_min_keyed": "repro.parallel.merge",
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
