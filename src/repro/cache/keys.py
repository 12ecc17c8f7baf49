"""Cache-key derivation: canonical JSON, code fingerprints, SHA-256 keys.

A cache entry is only sound if its key pins *everything* the result
depends on. The repo's determinism contracts make that tuple small and
explicit: the engine kind, the normalized spec parameters (seed
included), the compute-kernel mode, and a fingerprint of the source
modules whose code the result flows through. Worker count is
deliberately **absent** -- the workers=1 ≡ workers=N byte-identity
contract (PR 4/5/9 golden + hypothesis suites) is exactly what makes a
``--workers 2`` warm run hit the entry a serial cold run wrote. The key
records that choice as an explicit ``workers_invariant`` flag instead of
silently omitting the field, so a future kind *without* the contract can
key on workers by flipping the flag rather than by schema archaeology.

Kernel mode, by contrast, *is* in the key even though the kernel
registry guarantees bit-identical results across modes: the cache sits
underneath the machinery that proves that contract, so it must never
assume it. A ``--kernel reference`` run and a ``--kernel auto`` run
get distinct entries; conflating them would make the identity suites
vacuously pass on cache hits.

Everything here is pure arithmetic on bytes -- no ``hash()`` (randomized
per process), no wall clock -- so keys agree across processes, hosts,
and sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CACHE_KEY_VERSION",
    "canonical_json",
    "code_fingerprint",
    "fingerprint_modules",
    "item_key",
    "payload_digest",
    "request_key",
    "shard_key",
]

#: Bump when the key material layout changes incompatibly (old entries
#: become unreachable, which is the safe failure mode for a cache).
CACHE_KEY_VERSION = 1


def canonical_json(obj: Any) -> str:
    """The one true serialization of a JSON-able value.

    Sorted keys, no whitespace, ASCII-only: two structurally equal
    values always produce the same bytes, which is what makes digests of
    this string content addresses rather than representation addresses.
    Non-JSON types raise ``TypeError`` -- a cache key must never depend
    on ``repr`` fallbacks.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def payload_digest(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def _package_root() -> str:
    """Filesystem directory of the installed ``repro`` package."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _iter_module_files(prefix: str) -> Sequence[str]:
    """Absolute paths of the ``.py`` files behind one module prefix.

    ``repro.lowerbounds`` maps to ``<root>/lowerbounds`` (every ``.py``
    under it, recursively, sorted) or ``<root>/lowerbounds.py``; the bare
    prefix ``repro`` maps to the whole package. Unknown prefixes return
    nothing rather than raising -- a fingerprint over a module that does
    not exist yet is simply a fingerprint that will change when it does.
    """
    root = _package_root()
    parts = prefix.split(".")
    if parts[0] != "repro":
        raise ValueError(f"fingerprint prefixes must start with 'repro', got {prefix!r}")
    base = os.path.join(root, *parts[1:]) if len(parts) > 1 else root
    files = []
    if os.path.isfile(base + ".py"):
        files.append(base + ".py")
    elif os.path.isdir(base):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    files.append(os.path.join(dirpath, name))
    return files


@lru_cache(maxsize=64)
def fingerprint_modules(prefixes: Tuple[str, ...]) -> str:
    """SHA-256 over the source bytes of every module under ``prefixes``.

    The digest covers ``(relative path, file sha256)`` pairs in sorted
    path order, so renames, edits, additions, and deletions all change
    it. Memoized per process: module sources do not change under a
    running interpreter, and the walk touches ~100 small files.
    """
    root = _package_root()
    acc = hashlib.sha256()
    seen = set()
    for prefix in sorted(set(prefixes)):
        for path in _iter_module_files(prefix):
            if path in seen:
                continue
            seen.add(path)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            rel = os.path.relpath(path, root)
            acc.update(f"{rel}={digest}\n".encode("utf-8"))
    return acc.hexdigest()


def code_fingerprint(prefixes: Sequence[str]) -> str:
    """Convenience wrapper taking any sequence of module prefixes."""
    return fingerprint_modules(tuple(prefixes))


def request_key(
    kind: str,
    params: Mapping[str, Any],
    kernel: str = "auto",
    result_version: int = 1,
    fingerprint: str = "",
) -> str:
    """The whole-request content address.

    ``params`` must already be normalized (defaults filled, workers
    removed) -- the engine layer owns normalization so that two spellings
    of the same request collide on purpose.
    """
    material = {
        "cache_key_version": CACHE_KEY_VERSION,
        "kind": str(kind),
        "params": dict(params),
        "kernel": str(kernel),
        "workers_invariant": True,
        "result_version": int(result_version),
        "code_fingerprint": str(fingerprint),
    }
    return hashlib.sha256(canonical_json(material).encode("ascii")).hexdigest()


def item_key(
    kind: str,
    params: Mapping[str, Any],
    item: Mapping[str, Any],
    kernel: str = "auto",
    result_version: int = 1,
    fingerprint: str = "",
) -> str:
    """The content address of one independent sub-unit of a request.

    ``item`` names the unit within the request's decomposition -- a
    contiguous shard's ``{start, stop, seed}``, a fault-sweep cell's grid
    coordinates -- and the key binds it to the parent request material
    (minus budget/resume state, which only affect *how much* of the space
    gets covered, never any unit's value). Any plan that produces the
    same unit under the same params addresses the same entry, which is
    what lets a resumed or re-sharded run reuse completed pieces; the
    order-invariant monoid merge layer makes mixing cached and fresh
    units deterministic.
    """
    material = {
        "cache_key_version": CACHE_KEY_VERSION,
        "kind": str(kind),
        "params": dict(params),
        "kernel": str(kernel),
        "item": dict(item),
        "result_version": int(result_version),
        "code_fingerprint": str(fingerprint),
    }
    return hashlib.sha256(canonical_json(material).encode("ascii")).hexdigest()


def shard_key(
    kind: str,
    params: Mapping[str, Any],
    start: int,
    stop: int,
    seed: Optional[int] = None,
    kernel: str = "auto",
    result_version: int = 1,
    fingerprint: str = "",
) -> str:
    """The per-shard content address (a contiguous-range :func:`item_key`).

    Keys one contiguous slice of a request's index space: the shard's
    ``[start, stop)`` range and its SHA-256-derived seed
    (:func:`repro.parallel.shard.derive_seed`). A resume, a re-run with a
    different worker count, or an overlapping grid that cuts the same
    range with the same seed addresses the same entry.
    """
    return item_key(
        kind,
        params,
        {
            "start": int(start),
            "stop": int(stop),
            "seed": None if seed is None else int(seed),
        },
        kernel=kernel,
        result_version=result_version,
        fingerprint=fingerprint,
    )


#: Module prefixes whose source a kind's results flow through. Generous
#: on purpose: an over-wide fingerprint only costs invalidation (a cold
#: recompute after an unrelated edit); an under-wide one serves stale
#: results after a behavior change, which is a correctness bug. Every
#: cached shard is served again on each resume, so tests/cache/
#: test_keys.py checks each entry against the static import closure of
#: the kind's engine runner.
FINGERPRINT_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "run": (
        "repro.core",
        "repro.algorithms",
        "repro.instances",
        "repro.net",
        "repro.resilience",
        "repro.costs",
        "repro.graphs",
        "repro.parallel",
        "repro.obs.sketches",
    ),
    "exhaustive": (
        "repro.lowerbounds",
        "repro.parallel",
        "repro.instances",
        "repro.crossing",
        "repro.indist",
        "repro.core",
        "repro.graphs",
        "repro.kernels",
        "repro.costs",
        "repro.net",
        "repro.resilience.faults",
        "repro.obs.sketches",
    ),
    "sampling": (
        "repro.information",
        "repro.twoparty",
        "repro.partitions",
        "repro.parallel",
        "repro.algorithms",
        "repro.core",
        "repro.graphs",
        "repro.kernels",
        "repro.costs",
        "repro.obs.sketches",
    ),
    "ranks": (
        "repro.partitions",
        "repro.kernels",
        "repro.parallel",
        "repro.graphs",
    ),
    "fault-sweep": (
        "repro.resilience",
        "repro.core",
        "repro.algorithms",
        "repro.instances",
        "repro.graphs",
        "repro.parallel",
        "repro.costs",
        "repro.net",
        "repro.obs.sketches",
    ),
    "bench": ("repro",),
}


def kind_fingerprint(kind: str) -> str:
    """The code fingerprint for one engine kind (see the table above)."""
    prefixes = FINGERPRINT_PREFIXES.get(kind)
    if prefixes is None:
        raise ValueError(
            f"no fingerprint table entry for kind {kind!r}; "
            f"known: {sorted(FINGERPRINT_PREFIXES)}"
        )
    return fingerprint_modules(prefixes)
