"""Mergeable population sketches: quantiles, top-k, exact moments.

The paper's statements are about *distributions* -- error probability
over an input distribution, bit complexity over a protocol family -- yet
per-run telemetry (metrics, spans, cost ledgers) summarizes one run at a
time. This module supplies the population layer: three dependency-free
summary structures that are **deterministically mergeable**, so a sweep
sharded over any number of workers folds to the *same bytes* as the
serial loop (the same discipline the distributed-sketching protocols
themselves rely on: aggregate by order-invariant merge).

The design rule that buys order- and worker-invariance is that every
sketch's state is a **pure function of the observed multiset** -- never
of arrival order, shard boundaries, or merge history:

* :class:`QuantileSketch` keeps the exact multiset (a value -> count
  map) until the observation count exceeds ``cap``, then collapses onto
  **fixed, data-independent logarithmic bins** (16 sub-bins per octave
  via ``math.frexp``, sign-mirrored, zero its own bin). Collapsing is a
  deterministic function of the multiset, so ``merge(a, b)`` equals
  ``merge(b, a)`` equals the sketch of the union multiset, exactly.
  Nearest-rank quantiles are exact below the cap and bin-midpoint
  estimates (clamped to the exact min/max) above it -- relative bin
  width 1/32, so tail estimates are within ~1.6% of the true value.
* :class:`TopKSketch` retains exact counts for the ``cap``
  lexicographically-smallest distinct keys and aggregates everything
  else into ``other_count``. A key among the cap-smallest distinct keys
  of the whole stream is among the cap-smallest at every prefix, so it
  is admitted on first arrival and never evicted: retained counts are
  exact, and the retained *set* is again a pure function of the
  multiset. (This is an exact-until-cap frequency map with a mergeable
  eviction rule, not a heavy-hitters sketch: our key spaces -- outcome
  labels, fault kinds, phase names, edge labels -- are small, so in
  practice ``other_count`` stays 0 and every count is exact.)
* :class:`MomentsSketch` accumulates count/sum/sum-of-squares with
  :class:`fractions.Fraction` arithmetic. Floats embed exactly into the
  rationals and rational addition is associative and commutative *in
  exact arithmetic*, so merged moments are bit-identical for any merge
  tree -- no float summation-order drift.

Each sketch serializes to a JSON-ready dict (``to_dict``/``from_dict``),
so shard workers ship plain JSON, and :func:`merge_population` merges
the name -> state maps the sweep/scan parents fold, key by key, one
sketch kind per name. Merge-law property tests live in
``tests/obs/test_sketches.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "MomentsSketch",
    "QuantileSketch",
    "SKETCH_KINDS",
    "TopKSketch",
    "merge_population",
    "population_summary",
    "sketch_from_dict",
]

#: Default exact-mode capacity, aligned with Histogram's sample cap.
DEFAULT_QUANTILE_CAP = 4096

#: Default retained-key capacity for TopKSketch.
DEFAULT_TOPK_CAP = 64

#: Sub-bins per octave in the collapsed quantile representation.
_SUBBINS = 16

#: Bias keeping bin keys sign-symmetric around 0 (|frexp exponent| for
#: finite doubles is < 1100, so |e * 16 + sub| < 17616 << 2**16).
_BIN_BIAS = 1 << 16


def _check_finite(value: float) -> float:
    out = float(value)
    if math.isnan(out) or math.isinf(out):
        raise ValueError(f"sketches accept finite values only, got {value!r}")
    # normalize -0.0 so the stored key never depends on arrival order
    return 0.0 if out == 0.0 else out


def _check_count(count: int) -> int:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive int, got {count!r}")
    return count


def _bin_key(value: float) -> int:
    """The fixed log-bin index of a finite value (0 maps to key 0).

    Keys are integer, data-independent, and monotone in the value, so
    sorting keys sorts bins numerically and merging is a plain key-wise
    count sum.
    """
    if value == 0.0:
        return 0
    mantissa, exponent = math.frexp(abs(value))
    sub = int((mantissa - 0.5) * 2 * _SUBBINS)  # 0 .. _SUBBINS-1
    unsigned = exponent * _SUBBINS + sub + _BIN_BIAS
    return unsigned if value > 0.0 else -unsigned


def _bin_midpoint(key: int) -> float:
    """Deterministic representative (geometric-cell midpoint) of a bin."""
    if key == 0:
        return 0.0
    exponent, sub = divmod(abs(key) - _BIN_BIAS, _SUBBINS)
    magnitude = math.ldexp(0.5 + (sub + 0.5) / (2 * _SUBBINS), exponent)
    return magnitude if key > 0 else -magnitude


def _nearest_rank(items: List[Tuple[Any, int]], total: int, pct: float) -> Any:
    """Nearest-rank selection over (value, count) items sorted ascending."""
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for value, count in items:
        seen += count
        if seen >= rank:
            return value
    return items[-1][0]


class QuantileSketch:
    """Exact-until-cap, fixed-log-bin-after quantile sketch."""

    __slots__ = ("cap", "_count", "_min", "_max", "_exact", "_bins")

    kind = "quantile"

    def __init__(self, cap: int = DEFAULT_QUANTILE_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = cap
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: exact mode: value -> count (None once collapsed)
        self._exact: Optional[Dict[float, int]] = {}
        #: binned mode: bin key -> count
        self._bins: Dict[int, int] = {}

    # -- ingestion ------------------------------------------------------
    def update(self, value: float, count: int = 1) -> "QuantileSketch":
        value = _check_finite(value)
        count = _check_count(count)
        self._count += count
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if self._exact is not None:
            self._exact[value] = self._exact.get(value, 0) + count
            if self._count > self.cap:
                self._collapse()
        else:
            key = _bin_key(value)
            self._bins[key] = self._bins.get(key, 0) + count
        return self

    def _collapse(self) -> None:
        """Project the exact multiset onto the fixed bins.

        Called exactly when the observation count first exceeds the cap;
        because the bins are data-independent, the result depends only on
        the multiset -- not on when the collapse happened.
        """
        assert self._exact is not None
        for value, count in self._exact.items():
            key = _bin_key(value)
            self._bins[key] = self._bins.get(key, 0) + count
        self._exact = None

    # -- merging --------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into self (mutating, returns self).

        Capacities must agree -- a merge across caps would make the
        exact/binned decision depend on merge topology.
        """
        if other.cap != self.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")
        if other._count == 0:
            return self
        self._count += other._count
        self._min = other._min if self._min is None else min(self._min, other._min)  # type: ignore[type-var]
        self._max = other._max if self._max is None else max(self._max, other._max)  # type: ignore[type-var]
        if self._exact is not None and other._exact is not None:
            for value, count in other._exact.items():
                self._exact[value] = self._exact.get(value, 0) + count
            if self._count > self.cap:
                self._collapse()
        else:
            if self._exact is not None:
                self._collapse()
            if other._exact is not None:
                for value, count in other._exact.items():
                    key = _bin_key(value)
                    self._bins[key] = self._bins.get(key, 0) + count
            else:
                for key, count in other._bins.items():
                    self._bins[key] = self._bins.get(key, 0) + count
        return self

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.cap)
        out._count = self._count
        out._min, out._max = self._min, self._max
        out._exact = None if self._exact is None else dict(self._exact)
        out._bins = dict(self._bins)
        return out

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def exact_mode(self) -> bool:
        return self._exact is not None

    def quantile(self, pct: float) -> Optional[float]:
        """Nearest-rank percentile: exact below the cap, a bin-midpoint
        estimate clamped to the exact [min, max] above it."""
        if self._count == 0:
            return None
        if self._exact is not None:
            return _nearest_rank(sorted(self._exact.items()), self._count, pct)
        key = _nearest_rank(sorted(self._bins.items()), self._count, pct)
        assert self._min is not None and self._max is not None
        return min(max(_bin_midpoint(key), self._min), self._max)

    def mean(self) -> Optional[float]:
        """Exact mean below the cap, bin-midpoint estimate above it.

        Computed from the (sorted) state, never from a running float
        accumulator, so the result is independent of arrival order.
        """
        if self._count == 0:
            return None
        if self._exact is not None:
            total = math.fsum(v * c for v, c in sorted(self._exact.items()))
        else:
            total = math.fsum(
                _bin_midpoint(k) * c for k, c in sorted(self._bins.items())
            )
        return total / self._count

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self.mean(),
            "p50": self.quantile(50),
            "p90": self.quantile(90),
            "p99": self.quantile(99),
            "mode": "exact" if self._exact is not None else "binned",
        }

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {
            "kind": self.kind,
            "cap": self.cap,
            "count": self._count,
            "min": self._min,
            "max": self._max,
        }
        if self._exact is not None:
            state["values"] = [[v, c] for v, c in sorted(self._exact.items())]
        else:
            state["bins"] = [[k, c] for k, c in sorted(self._bins.items())]
        return state

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "QuantileSketch":
        if state.get("kind") != cls.kind:
            raise ValueError(f"not a quantile sketch state: {state.get('kind')!r}")
        out = cls(int(state["cap"]))
        out._count = int(state["count"])
        out._min = None if state["min"] is None else float(state["min"])
        out._max = None if state["max"] is None else float(state["max"])
        if "values" in state:
            out._exact = {float(v): int(c) for v, c in state["values"]}
        else:
            out._exact = None
            out._bins = {int(k): int(c) for k, c in state["bins"]}
        return out


class TopKSketch:
    """Exact counts for the ``cap`` lexicographically-smallest keys."""

    __slots__ = ("cap", "_counts", "_other", "_count")

    kind = "topk"

    def __init__(self, cap: int = DEFAULT_TOPK_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = cap
        self._counts: Dict[str, int] = {}
        self._other = 0
        self._count = 0

    # -- ingestion ------------------------------------------------------
    def update(self, key: str, count: int = 1) -> "TopKSketch":
        if not isinstance(key, str):
            raise ValueError(f"TopKSketch keys must be str, got {type(key).__name__}")
        count = _check_count(count)
        self._count += count
        if key in self._counts:
            self._counts[key] += count
        elif len(self._counts) < self.cap:
            self._counts[key] = count
        elif key < max(self._counts):
            # key enters the guard set; the largest retained key leaves
            self._counts[key] = count
            self._evict()
        else:
            self._other += count
        return self

    def _evict(self) -> None:
        while len(self._counts) > self.cap:
            largest = max(self._counts)
            self._other += self._counts.pop(largest)

    # -- merging --------------------------------------------------------
    def merge(self, other: "TopKSketch") -> "TopKSketch":
        if other.cap != self.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")
        self._count += other._count
        self._other += other._other
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
        self._evict()
        return self

    def copy(self) -> "TopKSketch":
        out = TopKSketch(self.cap)
        out._counts = dict(self._counts)
        out._other = self._other
        out._count = self._count
        return out

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def other_count(self) -> int:
        return self._other

    def top(self, k: Optional[int] = None) -> List[Tuple[str, int]]:
        """Retained keys by descending count (key breaks ties)."""
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if k is None else ranked[:k]

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "distinct_retained": len(self._counts),
            "other_count": self._other,
            "top": [[key, count] for key, count in self.top(10)],
        }

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "cap": self.cap,
            "count": self._count,
            "other": self._other,
            "counts": [[k, c] for k, c in sorted(self._counts.items())],
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "TopKSketch":
        if state.get("kind") != cls.kind:
            raise ValueError(f"not a topk sketch state: {state.get('kind')!r}")
        out = cls(int(state["cap"]))
        out._count = int(state["count"])
        out._other = int(state["other"])
        out._counts = {str(k): int(c) for k, c in state["counts"]}
        return out


class MomentsSketch:
    """Count / mean / variance with exact rational accumulation."""

    __slots__ = ("_count", "_sum", "_sum2", "_min", "_max")

    kind = "moments"

    def __init__(self) -> None:
        self._count = 0
        self._sum = Fraction(0)
        self._sum2 = Fraction(0)
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingestion ------------------------------------------------------
    def update(self, value: float, count: int = 1) -> "MomentsSketch":
        value = _check_finite(value)
        count = _check_count(count)
        exact = Fraction(value)
        self._count += count
        self._sum += exact * count
        self._sum2 += exact * exact * count
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        return self

    # -- merging --------------------------------------------------------
    def merge(self, other: "MomentsSketch") -> "MomentsSketch":
        if other._count == 0:
            return self
        self._count += other._count
        self._sum += other._sum
        self._sum2 += other._sum2
        self._min = other._min if self._min is None else min(self._min, other._min)  # type: ignore[type-var]
        self._max = other._max if self._max is None else max(self._max, other._max)  # type: ignore[type-var]
        return self

    def copy(self) -> "MomentsSketch":
        out = MomentsSketch()
        out._count = self._count
        out._sum, out._sum2 = self._sum, self._sum2
        out._min, out._max = self._min, self._max
        return out

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> Optional[float]:
        if self._count == 0:
            return None
        return float(self._sum / self._count)

    def variance(self) -> Optional[float]:
        """Population variance, computed in exact rationals then
        rounded once -- never negative, never order-dependent."""
        if self._count == 0:
            return None
        mu = self._sum / self._count
        return float(self._sum2 / self._count - mu * mu)

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self.mean(),
            "variance": self.variance(),
        }

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": [self._sum.numerator, self._sum.denominator],
            "sum2": [self._sum2.numerator, self._sum2.denominator],
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "MomentsSketch":
        if state.get("kind") != cls.kind:
            raise ValueError(f"not a moments sketch state: {state.get('kind')!r}")
        out = cls()
        out._count = int(state["count"])
        out._sum = Fraction(int(state["sum"][0]), int(state["sum"][1]))
        out._sum2 = Fraction(int(state["sum2"][0]), int(state["sum2"][1]))
        out._min = None if state["min"] is None else float(state["min"])
        out._max = None if state["max"] is None else float(state["max"])
        return out


Sketch = Union[QuantileSketch, TopKSketch, MomentsSketch]

#: kind tag -> class, the dispatch table for serialized states.
SKETCH_KINDS = {
    QuantileSketch.kind: QuantileSketch,
    TopKSketch.kind: TopKSketch,
    MomentsSketch.kind: MomentsSketch,
}


def sketch_from_dict(state: Dict[str, Any]) -> Sketch:
    """Rehydrate any serialized sketch by its ``kind`` tag."""
    kind = state.get("kind")
    cls = SKETCH_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown sketch kind {kind!r}")
    return cls.from_dict(state)


def _merge_states(
    a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Merge two *serialized* states of one kind (None = absent shard)."""
    if a is None:
        return b
    if b is None:
        return a
    if a.get("kind") != b.get("kind"):
        raise ValueError(f"sketch kind mismatch: {a.get('kind')!r} vs {b.get('kind')!r}")
    return sketch_from_dict(a).merge(sketch_from_dict(b)).to_dict()  # type: ignore[arg-type]


def merge_population(
    a: Optional[Dict[str, Dict[str, Any]]], b: Optional[Dict[str, Dict[str, Any]]]
) -> Optional[Dict[str, Dict[str, Any]]]:
    """Key-wise sketch merge of two name -> serialized-state maps.

    This is what the sweep/scan parents fold over shard results: each
    worker ships ``{"rounds": <quantile state>, "outcomes": <topk
    state>, ...}`` and the parent folds them in shard order (though
    order cannot matter -- see the module docstring).
    """
    if a is None:
        return b
    if b is None:
        return a
    out = dict(a)
    for name, state in b.items():
        out[name] = _merge_states(out.get(name), state)
    return out


def population_summary(
    population: Optional[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Human-ready summaries of a name -> serialized-state map, in
    sorted name order."""
    if not population:
        return {}
    return {
        name: sketch_from_dict(population[name]).summary()
        for name in sorted(population)
    }
