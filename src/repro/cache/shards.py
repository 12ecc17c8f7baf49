"""Per-unit cache adapter: one request's view of the content store.

The sharded compute layers name each unit (a shard, a grid cell) by a
small item and know nothing of fingerprints or key material.
:class:`ShardCache` closes over everything else (the backing
:class:`~repro.cache.store.ResultCache`, the engine kind, the normalized
request params, the kernel mode, the code fingerprint), so the cache
surface is two calls, made only by :func:`repro.parallel.shard.map_units`::

    cached = shard_cache.get_item({"start": 0, "stop": 81, "seed": 1234})
    ...
    shard_cache.put_item({"start": 0, "stop": 81, "seed": 1234}, result)

Budget and resume state are deliberately *not* part of the binding: they
change which units a run covers, never the value of any unit, so a
budget-exhausted cold run and an unbounded warm run share entries --
which is exactly the delta-only resumption the per-shard granularity
exists for.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.cache.keys import item_key
from repro.cache.store import ResultCache

__all__ = ["ShardCache"]


class ShardCache:
    """Get/put for one request's independent sub-units.

    A thin, stateless binding -- all counters live on the backing
    :class:`ResultCache`, so a run that mixes whole-request and per-shard
    traffic reports one coherent hit/miss tally.
    """

    def __init__(
        self,
        cache: ResultCache,
        kind: str,
        params: Mapping[str, Any],
        kernel: str = "auto",
        result_version: int = 1,
        fingerprint: str = "",
    ):
        self.cache = cache
        self.kind = str(kind)
        self.params = dict(params)
        self.kernel = str(kernel)
        self.result_version = int(result_version)
        self.fingerprint = str(fingerprint)

    def key_for(self, item: Mapping[str, Any]) -> str:
        return item_key(
            self.kind,
            self.params,
            item,
            kernel=self.kernel,
            result_version=self.result_version,
            fingerprint=self.fingerprint,
        )

    def get_item(self, item: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """The cached result for one unit, or ``None`` on any miss."""
        return self.cache.get(self.key_for(item))

    def put_item(self, item: Mapping[str, Any], payload: Dict[str, Any]) -> bool:
        """Store one unit's result; returns whether it was written."""
        return self.cache.put(self.key_for(item), self.kind, payload)
