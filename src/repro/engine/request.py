"""Engine request/result envelopes and per-kind parameter normalization.

The engine API is the repo's library-level seam: everything the CLI
subcommands and the record/replay layer can execute is expressed as an
:class:`EngineRequest` -- a kind from :data:`ENGINE_KINDS` plus its spec
parameters -- dispatched by :func:`repro.engine.core.execute`, which
returns a schema-versioned :class:`EngineResult`. The CLI and
:mod:`repro.replay.engines` are thin adapters over this seam, and it is
where the content-addressed result cache (:mod:`repro.cache`) plugs in:
two different spellings of the same request must normalize to the same
parameter dict, because the cache key is a digest of that dict.

Normalization rules (``normalize_params``):

* every optional field is filled with its default, so ``{"n": 6}`` and
  ``{"n": 6, "eps": 0.0}`` collide on purpose;
* ``workers`` never appears -- it lives on the request itself and is
  excluded from cache keys by the workers=1 ≡ N byte-identity contract;
* values are coerced to canonical JSON types (ints, floats, lists) so
  ``("a","b")`` and ``["a","b"]`` are the same request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import EngineError

__all__ = [
    "ENGINE_KINDS",
    "ENGINE_RESULT_VERSION",
    "EngineOptions",
    "EngineRequest",
    "EngineResult",
    "normalize_params",
]

#: Every kind :func:`repro.engine.core.execute` dispatches, caches and
#: records: each payload is a pure function of its normalized params.
ENGINE_KINDS = ("run", "exhaustive", "sampling", "ranks", "fault-sweep")

#: Bump when any kind's payload layout changes incompatibly; part of the
#: cache key, so old entries become unreachable rather than wrong.
ENGINE_RESULT_VERSION = 1


@dataclass(frozen=True)
class EngineRequest:
    """One executable unit of work: a kind plus its spec parameters.

    ``params`` is the *raw* spelling -- :func:`normalize_params` runs
    inside :func:`~repro.engine.core.execute`, so callers never need to
    pre-fill defaults. ``kernel`` and ``workers`` ride outside ``params``
    because they select *how* to compute, not *what*: kernel is still
    part of the cache key (conservatively -- the cache must not assume
    the kernel-identity contract it sits under), workers is not.
    """

    kind: str
    params: Mapping[str, Any]
    kernel: str = "auto"
    workers: int = 1


@dataclass
class EngineOptions:
    """Execution-time knobs that never affect a result's value.

    A budget changes how much of a request gets computed before it
    stops -- never the value of what was computed -- so it does not
    participate in cache keys. ``session``
    disables whole-request memoization (a recorded session must contain
    the execution's actual steps); ``trace`` receives ``cache`` events
    on hit/miss, with the caveat that a whole-request hit elides the
    compute's own events.
    """

    budget: Optional[Any] = None
    session: Optional[Any] = None
    trace: Optional[Any] = None
    metrics: Optional[Any] = None


@dataclass(frozen=True)
class EngineResult:
    """A schema-versioned engine result.

    ``payload`` is canonical-JSON-shaped (lists, dicts, scalars -- the
    product of a JSON round-trip), so a freshly computed result compares
    byte-for-byte equal to a cache hit. ``cached`` and ``key`` describe
    how this particular object was obtained; they are not part of the
    payload and never reach the cache.
    """

    kind: str
    params: Dict[str, Any]
    kernel: str
    payload: Dict[str, Any]
    cached: bool = False
    key: Optional[str] = None
    schema_version: int = ENGINE_RESULT_VERSION


def _int(params: Mapping[str, Any], name: str, default: Optional[int] = None) -> int:
    value = params.get(name, default)
    if value is None:
        raise EngineError(f"missing required parameter {name!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise EngineError(f"parameter {name!r} must be an integer, got {value!r}") from exc


def _float(params: Mapping[str, Any], name: str, default: float) -> float:
    value = params.get(name, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise EngineError(f"parameter {name!r} must be a number, got {value!r}") from exc


def _str_list(params: Mapping[str, Any], name: str, default) -> List[str]:
    value = params.get(name)
    if value is None:
        value = default
    return [str(item) for item in value]


def _int_list(params: Mapping[str, Any], name: str) -> List[int]:
    try:
        return [int(item) for item in params.get(name, ())]
    except (TypeError, ValueError) as exc:
        raise EngineError(f"parameter {name!r} must be a list of integers") from exc


def _normalize_run(params: Mapping[str, Any]) -> Dict[str, Any]:
    algorithm = params.get("algorithm")
    if not isinstance(algorithm, str):
        raise EngineError("run requests need a string 'algorithm' parameter")
    split = params.get("split")
    rounds = params.get("rounds")
    coin_seed = params.get("coin_seed")
    faults = params.get("faults")
    network = params.get("network")
    return {
        "algorithm": algorithm,
        "n": _int(params, "n"),
        "instance": str(params.get("instance", "one_cycle")),
        "split": None if split is None else int(split),
        "rounds": None if rounds is None else int(rounds),
        "coin_seed": None if coin_seed is None else str(coin_seed),
        "faults": None if faults is None else dict(faults),
        "network": None if network is None else dict(network),
    }


def _normalize_exhaustive(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "n": _int(params, "n"),
        "alphabet": _str_list(params, "alphabet", ("", "0", "1")),
        "population": bool(params.get("population", False)),
    }


def _normalize_sampling(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "n": _int(params, "n"),
        "samples": _int(params, "samples"),
        "seed": _int(params, "seed", 0),
        "eps": _float(params, "eps", 0.0),
    }


def _normalize_ranks(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Two spellings: the replay ``ns`` list, or the CLI's M/E grids.

    The ``ns`` form computes ``m_rank`` per n (``e_rank`` when n is
    even) and yields ``{"rows": [...]}`` -- byte-compatible with what
    recorded ranks sessions have always replayed. The grid form names
    the M and E size lists separately and yields ``{"m_rows", "e_rows"}``
    with the paper-predicted values alongside each rank.
    """
    if params.get("ns") is not None:
        ns = _int_list(params, "ns")
        if not ns:
            raise EngineError("ranks requests need a non-empty 'ns' parameter")
        return {"ns": ns}
    m_ns = _int_list(params, "m_ns")
    e_ns = _int_list(params, "e_ns")
    if not m_ns and not e_ns:
        raise EngineError("ranks requests need 'ns' or 'm_ns'/'e_ns' parameters")
    if any(n % 2 for n in e_ns):
        raise EngineError(f"'e_ns' sizes must be even, got {e_ns}")
    return {"m_ns": m_ns, "e_ns": e_ns}


def _normalize_fault_sweep(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "algorithms": _str_list(
            params,
            "algorithms",
            ("neighbor_exchange", "flooding", "boruvka", "sketch"),
        ),
        "kinds": _str_list(params, "kinds", ("bit_flip", "erasure", "crash")),
        "rates": [
            float(rate) for rate in params.get("rates", (0.0, 0.01, 0.05, 0.1, 0.2))
        ],
        "n": _int(params, "n", 8),
        "trials": _int(params, "trials", 10),
        "seed": _int(params, "seed", 0),
    }


_NORMALIZERS = {
    "run": _normalize_run,
    "exhaustive": _normalize_exhaustive,
    "sampling": _normalize_sampling,
    "ranks": _normalize_ranks,
    "fault-sweep": _normalize_fault_sweep,
}


def normalize_params(kind: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """The canonical parameter dict for ``(kind, params)``.

    Deterministic and idempotent: normalizing an already-normalized dict
    returns an equal dict, which is what makes the digest of this dict a
    content address for the request.
    """
    normalizer = _NORMALIZERS.get(kind)
    if normalizer is None:
        raise EngineError(
            f"unknown engine kind {kind!r}; known: {list(ENGINE_KINDS)}"
        )
    return normalizer(params)
