"""Content-addressed result cache (see :mod:`repro.cache.store`).

The cache sits under the engine seam (:mod:`repro.engine`): whole
requests and individual shards are keyed by SHA-256 of their canonical
determinism tuple, payloads are digest-verified on every read, and
writes follow the session-log durability contract (retried, rolled
back, atomically published).
"""

from repro import lazy_getattr

# Every name is re-exported lazily (PEP 562), so reading a constant of
# the store does not load the key derivation, and vice versa.
_LAZY_EXPORTS = {
    "CACHE_KEY_VERSION": "repro.cache.keys",
    "canonical_json": "repro.cache.keys",
    "code_fingerprint": "repro.cache.keys",
    "fingerprint_modules": "repro.cache.keys",
    "item_key": "repro.cache.keys",
    "kind_fingerprint": "repro.cache.keys",
    "payload_digest": "repro.cache.keys",
    "request_key": "repro.cache.keys",
    "shard_key": "repro.cache.keys",
    "ShardCache": "repro.cache.shards",
    "CACHE_VERSION": "repro.cache.store",
    "CacheError": "repro.cache.store",
    "ResultCache": "repro.cache.store",
}

__getattr__ = lazy_getattr(globals())

#: Default eviction budget for ``repro cache gc`` (256 MiB). Defined
#: here, not in repro.cache.store, so the CLI parser can print it without
#: loading the store.
DEFAULT_GC_MAX_BYTES = 256 * 1024 * 1024

__all__ = sorted([*_LAZY_EXPORTS, "DEFAULT_GC_MAX_BYTES"])
