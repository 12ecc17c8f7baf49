"""Content-addressed result cache (see :mod:`repro.cache.store`).

The cache sits under the engine seam (:mod:`repro.engine`): whole
requests and individual shards are keyed by SHA-256 of their canonical
determinism tuple, payloads are digest-verified on every read, and
writes follow the session-log durability contract (retried, rolled
back, atomically published).
"""

from repro.cache.keys import (
    CACHE_KEY_VERSION,
    canonical_json,
    code_fingerprint,
    fingerprint_modules,
    item_key,
    kind_fingerprint,
    payload_digest,
    request_key,
    shard_key,
)
from repro.cache.shards import ShardCache
from repro.cache.store import CACHE_VERSION, CacheError, ResultCache

__all__ = [
    "CACHE_KEY_VERSION",
    "CACHE_VERSION",
    "CacheError",
    "ResultCache",
    "ShardCache",
    "canonical_json",
    "code_fingerprint",
    "fingerprint_modules",
    "item_key",
    "kind_fingerprint",
    "payload_digest",
    "request_key",
    "shard_key",
]
