"""Content-addressed on-disk result cache.

Layout: ``root/objects/<key[:2]>/<key>.json``, one JSON envelope per
entry. The envelope carries the payload *and* a SHA-256 digest of the
payload's canonical JSON form::

    {
      "cache_version": 1,
      "key": "ab12...",                // the content address (redundant,
                                       // lets `verify` cross-check names)
      "kind": "exhaustive",
      "created_unix": 1754600000.0,
      "payload_sha256": "cd34...",
      "payload": { ... the exact EngineResult envelope ... }
    }

Correctness posture: the cache **never trusts disk**. Every read
re-derives the payload digest and compares it to the stored one; a torn
tail, a flipped bit, or a hand-edited blob all fail the check and the
entry is treated as a miss (and counted under ``cache.corrupt``) -- the
caller recomputes and overwrites. Serving a wrong-but-parseable result
is the one failure mode a result cache must not have.

Durability posture mirrors the session store: writes go
through :func:`repro.resilience.retry.retry_transient` (bounded backoff
on transient ``OSError``), each attempt rolls back its partial temp file
via seek+truncate before retrying, and publication is a same-directory
``os.replace`` so the named entry only ever flips complete-to-complete.
A process killed mid-write leaves at worst an orphaned ``.tmp`` file
(swept by :meth:`ResultCache.gc`), never a torn named entry.

Eviction is size-bounded LRU on file mtime: every hit bumps the entry's
mtime, ``gc(max_bytes)`` deletes oldest-first until under budget.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cache.keys import canonical_json, payload_digest
from repro.errors import ReproError
from repro.resilience.retry import retry_transient

__all__ = ["CACHE_VERSION", "CacheError", "ResultCache"]

#: Bump when the on-disk entry envelope changes incompatibly.
CACHE_VERSION = 1

#: Default eviction budget for ``repro cache gc`` (256 MiB).
DEFAULT_GC_MAX_BYTES = 256 * 1024 * 1024


class CacheError(ReproError):
    """A cache operation failed persistently (I/O beyond retry)."""


class ResultCache:
    """Content-addressed store of engine results under one root directory.

    ``enabled=False`` turns every operation into a no-op that reports a
    miss -- callers thread one cache object unconditionally and the
    disabled path costs a single attribute check, mirroring the metrics
    registry's opt-in contract.

    Instance counters (``hits``/``misses``/``stored``/``bytes_saved``/
    ``corrupt``) always accrue; when a process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` is installed the same
    events also land there under ``cache.hit`` / ``cache.miss`` /
    ``cache.stored`` / ``cache.bytes_saved`` / ``cache.corrupt``.
    """

    def __init__(self, root: str, enabled: bool = True):
        self.root = os.path.abspath(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.bytes_saved = 0
        self.corrupt = 0

    # -- paths ----------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _entry_path(self, key: str) -> str:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache key must be a hex digest, got {key!r}")
        return os.path.join(self.objects_dir, key[:2], key + ".json")

    # -- metrics --------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        if registry is not None:
            registry.counter(f"cache.{name}").inc(amount)

    # -- read path ------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` on any miss.

        Misses are uniform: absent file, unparseable JSON (torn tail),
        wrong envelope version, and digest mismatch all return ``None``.
        Corruption additionally bumps ``cache.corrupt`` so `verify` and
        the dashboard can surface it, but it is *never* surfaced to the
        caller as anything other than "not cached" -- the recompute path
        is the recovery path.
        """
        if not self.enabled:
            return None
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            self.misses += 1
            self._count("miss")
            return None
        payload = self._validate_entry(entry, key)
        if payload is None:
            self.misses += 1
            self.corrupt += 1
            self._count("miss")
            self._count("corrupt")
            return None
        saved = len(canonical_json(payload).encode("ascii"))
        self.hits += 1
        self.bytes_saved += saved
        self._count("hit")
        self._count("bytes_saved", saved)
        # LRU recency: a hit makes the entry "young" for gc's mtime order.
        try:
            os.utime(path, None)
        except OSError:
            pass
        return payload

    @staticmethod
    def _validate_entry(entry: Any, key: str) -> Optional[Dict[str, Any]]:
        """The entry's payload iff the envelope and digest check out."""
        if not isinstance(entry, dict):
            return None
        if entry.get("cache_version") != CACHE_VERSION:
            return None
        if entry.get("key") != key:
            return None
        payload = entry.get("payload")
        stored_digest = entry.get("payload_sha256")
        if payload is None or not isinstance(stored_digest, str):
            return None
        try:
            actual = payload_digest(payload)
        except (TypeError, ValueError):
            return None
        if actual != stored_digest:
            return None
        return payload

    # -- write path -----------------------------------------------------
    def put(self, key: str, kind: str, payload: Dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``; returns whether it was written.

        The write contract matches the session store: the entry
        body is serialized once, then each :func:`retry_transient`
        attempt writes it to a fresh-position temp file, **rolls the
        temp file back via seek+truncate if the write or fsync raises**,
        and only a fully fsynced temp file is published with
        ``os.replace`` (itself retried). Persistent failure degrades to "not cached"
        rather than raising -- a broken cache disk must not kill the
        computation whose result it was trying to save.
        """
        if not self.enabled:
            return False
        path = self._entry_path(key)
        entry = {
            "cache_version": CACHE_VERSION,
            "key": key,
            "kind": kind,
            "created_unix": time.time(),
            "payload_sha256": payload_digest(payload),
            "payload": payload,
        }
        data = canonical_json(entry)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=".cache-", suffix=".tmp", dir=directory
            )
        except OSError:
            return False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:

                def attempt() -> None:
                    position = handle.tell()
                    try:
                        handle.write(data)
                        handle.flush()
                        os.fsync(handle.fileno())
                    except BaseException:
                        # Roll back this attempt's partial bytes so the
                        # retry starts from a clean tail, exactly like
                        # the session store's append rollback.
                        handle.seek(position)
                        handle.truncate()
                        raise

                # All attempts append at position 0 (rollback restores
                # it), so the published file holds exactly one envelope.
                handle.seek(0)
                retry_transient(attempt)
            retry_transient(lambda: os.replace(tmp_path, path))
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        self.stored += 1
        self._count("stored")
        return True

    # -- maintenance ----------------------------------------------------
    def _iter_entries(self) -> Iterator[Tuple[str, str]]:
        """Yields ``(key, path)`` for every named entry file on disk."""
        objects = self.objects_dir
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")], os.path.join(shard_dir, name)

    def stats(self) -> Dict[str, Any]:
        """On-disk shape plus this instance's session counters."""
        entries = 0
        total_bytes = 0
        by_kind: Dict[str, int] = {}
        for key, path in self._iter_entries():
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "r", encoding="utf-8") as handle:
                    kind = json.load(handle).get("kind", "?")
            except (OSError, json.JSONDecodeError):
                kind = "?"
            by_kind[str(kind)] = by_kind.get(str(kind), 0) + 1
        return {
            "root": self.root,
            "enabled": self.enabled,
            "entries": entries,
            "bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
            "session": self.counters(),
        }

    def counters(self) -> Dict[str, int]:
        """This instance's hit/miss accounting as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "bytes_saved": self.bytes_saved,
            "corrupt": self.corrupt,
        }

    def verify(self, delete: bool = False) -> Dict[str, Any]:
        """Digest-check every entry; optionally delete the bad ones.

        Returns ``{"checked": N, "ok": N, "corrupt": [keys...],
        "deleted": N}``. Corrupt covers everything :meth:`get` would
        refuse: unparseable, wrong version, key mismatch, digest
        mismatch.
        """
        checked = 0
        corrupt: List[str] = []
        deleted = 0
        for key, path in self._iter_entries():
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, json.JSONDecodeError):
                entry = None
            if self._validate_entry(entry, key) is None:
                corrupt.append(key)
                if delete:
                    try:
                        os.unlink(path)
                        deleted += 1
                    except OSError:
                        pass
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
            "deleted": deleted,
        }

    def gc(self, max_bytes: int = DEFAULT_GC_MAX_BYTES) -> Dict[str, Any]:
        """Evict least-recently-used entries until under ``max_bytes``.

        Recency is file mtime (hits bump it). Also sweeps orphaned
        ``.tmp`` files left by killed writers -- they are unreachable by
        construction (publication is the final ``os.replace``), so
        removing them is always safe.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        swept_tmp = 0
        objects = self.objects_dir
        if os.path.isdir(objects):
            for shard in os.listdir(objects):
                shard_dir = os.path.join(objects, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in os.listdir(shard_dir):
                    if name.endswith(".tmp"):
                        try:
                            os.unlink(os.path.join(shard_dir, name))
                            swept_tmp += 1
                        except OSError:
                            pass
        aged: List[Tuple[float, int, str]] = []
        total = 0
        for _key, path in self._iter_entries():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        aged.sort()  # oldest mtime first = least recently used first
        evicted = 0
        freed = 0
        for mtime, size, path in aged:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "swept_tmp": swept_tmp,
            "remaining_bytes": total,
            "max_bytes": max_bytes,
        }
