"""Merge-law and worker-invariance tests for the population sketches.

Two layers:

* property tests (hypothesis) driving the per-kind state merge and
  :func:`merge_population` through the algebraic laws -- associativity,
  commutativity, identity (``None``, an absent shard) -- on *serialized*
  states, exactly as shard parents fold them;
* parity tests pinning the end-to-end contract: a sketch built in one
  serial pass over a stream equals the fold of per-shard sketches for
  workers in {1, 2}, and the instrumented engines (fault sweep,
  sampling, exhaustive scan) report bit-identical populations for every
  worker count.
"""

import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketches import (
    DEFAULT_QUANTILE_CAP,
    DEFAULT_TOPK_CAP,
    SKETCH_KINDS,
    MomentsSketch,
    QuantileSketch,
    TopKSketch,
    _merge_states,
    merge_population,
    population_summary,
    sketch_from_dict,
)

# ----------------------------------------------------------------------
# strategies: serialized sketch states, built only through update()
# ----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
small_counts = st.integers(min_value=1, max_value=50)
topk_keys = st.sampled_from(
    ["YES", "NO", "crash", "erasure", "bit_flip", "simulate", "decision", "other"]
)


def _quantile_state(observations, cap=8):
    sketch = QuantileSketch(cap=cap)
    for value, count in observations:
        sketch.update(value, count)
    return sketch.to_dict()


def _topk_state(observations, cap=4):
    sketch = TopKSketch(cap=cap)
    for key, count in observations:
        sketch.update(key, count)
    return sketch.to_dict()


def _moments_state(observations):
    sketch = MomentsSketch()
    for value, count in observations:
        sketch.update(value, count)
    return sketch.to_dict()


quantile_states = st.lists(
    st.tuples(finite_floats, small_counts), max_size=12
).map(lambda obs: _quantile_state(obs))
topk_states = st.lists(st.tuples(topk_keys, small_counts), max_size=12).map(
    lambda obs: _topk_state(obs)
)
moments_states = st.lists(st.tuples(finite_floats, small_counts), max_size=12).map(
    lambda obs: _moments_state(obs)
)
# each name carries a fixed kind, as in the real engines (merging two
# kinds under one name is a hard error, tested separately below)
population_states = st.fixed_dictionaries(
    {},
    optional={
        "rounds": quantile_states,
        "bits": moments_states,
        "outcomes": topk_states,
    },
)

#: merge name -> (merge function, a strategy of valid operands; None =
#: absent shard, the identity of every merge).
_MERGES = {
    "sketch.quantile": (_merge_states, st.one_of(st.none(), quantile_states)),
    "sketch.topk": (_merge_states, st.one_of(st.none(), topk_states)),
    "sketch.moments": (_merge_states, st.one_of(st.none(), moments_states)),
    "sketch.population": (merge_population, st.one_of(st.none(), population_states)),
}

SKETCH_MONOIDS = sorted(_MERGES)


def test_every_sketch_monoid_is_registered_and_covered():
    # every kind of the SKETCH_KINDS registry has its laws checked
    assert SKETCH_MONOIDS == sorted(
        [f"sketch.{kind}" for kind in SKETCH_KINDS] + ["sketch.population"]
    )


# ----------------------------------------------------------------------
# the merge laws, for every sketch kind and for whole populations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SKETCH_MONOIDS)
def test_identity_laws(name):
    merge, operands = _MERGES[name]

    @given(a=operands)
    @settings(max_examples=50, deadline=None)
    def check(a):
        assert merge(None, a) == a
        assert merge(a, None) == a

    check()


@pytest.mark.parametrize("name", SKETCH_MONOIDS)
def test_commutativity(name):
    merge, operands = _MERGES[name]

    @given(a=operands, b=operands)
    @settings(max_examples=100, deadline=None)
    def check(a, b):
        assert merge(a, b) == merge(b, a)

    check()


@pytest.mark.parametrize("name", SKETCH_MONOIDS)
def test_associativity(name):
    merge, operands = _MERGES[name]

    @given(a=operands, b=operands, c=operands)
    @settings(max_examples=100, deadline=None)
    def check(a, b, c):
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    check()


@given(
    observations=st.lists(st.tuples(finite_floats, small_counts), max_size=30),
    workers=st.sampled_from([1, 2]),
)
@settings(max_examples=100, deadline=None)
def test_quantile_serial_equals_sharded(observations, workers):
    serial = QuantileSketch(cap=8)
    for value, count in observations:
        serial.update(value, count)
    shard_states = [
        _quantile_state(observations[shard::workers]) for shard in range(workers)
    ]
    folded = reduce(_merge_states, shard_states, None)
    assert folded == serial.to_dict()


@given(
    observations=st.lists(st.tuples(topk_keys, small_counts), max_size=30),
    workers=st.sampled_from([1, 2]),
)
@settings(max_examples=100, deadline=None)
def test_topk_serial_equals_sharded(observations, workers):
    serial = TopKSketch(cap=4)
    for key, count in observations:
        serial.update(key, count)
    shard_states = [
        _topk_state(observations[shard::workers]) for shard in range(workers)
    ]
    folded = reduce(_merge_states, shard_states, None)
    assert folded == serial.to_dict()


@given(
    observations=st.lists(st.tuples(finite_floats, small_counts), max_size=30),
    workers=st.sampled_from([1, 2]),
)
@settings(max_examples=100, deadline=None)
def test_moments_serial_equals_sharded(observations, workers):
    serial = MomentsSketch()
    for value, count in observations:
        serial.update(value, count)
    shard_states = [
        _moments_state(observations[shard::workers]) for shard in range(workers)
    ]
    folded = reduce(_merge_states, shard_states, None)
    assert folded == serial.to_dict()


@given(
    observations=st.lists(st.tuples(finite_floats, small_counts), max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_merge_order_is_irrelevant(observations):
    """Any shuffling of single-observation sketches folds to the same
    state -- the arrival-order-independence claim, directly."""
    singles = [_quantile_state([obs]) for obs in observations]
    shuffled = list(singles)
    random.Random(0).shuffle(shuffled)
    assert reduce(_merge_states, singles, None) == reduce(_merge_states, shuffled, None)


# ----------------------------------------------------------------------
# sketch unit behavior
# ----------------------------------------------------------------------


class TestQuantileSketch:
    def test_exact_below_cap(self):
        sketch = QuantileSketch(cap=100)
        for v in range(1, 101):
            sketch.update(float(v))
        assert sketch.exact_mode
        assert sketch.quantile(50) == 50.0
        assert sketch.quantile(99) == 99.0
        assert sketch.summary()["mode"] == "exact"
        assert sketch.mean() == pytest.approx(50.5)

    def test_binned_above_cap_bounded_relative_error(self):
        sketch = QuantileSketch(cap=64)
        values = [1.0 + 0.01 * i for i in range(1000)]
        for v in values:
            sketch.update(v)
        assert not sketch.exact_mode
        for pct in (50, 90, 99):
            exact = sorted(values)[max(1, math.ceil(pct / 100 * len(values))) - 1]
            estimate = sketch.quantile(pct)
            # worst-case midpoint error is half a sub-bin: 1/32 of the
            # octave span, i.e. < 1/32 relative at mantissa 0.5
            assert abs(estimate - exact) / exact < 0.04
        assert sketch.summary()["min"] == 1.0
        assert sketch.summary()["max"] == pytest.approx(10.99)

    def test_collapse_timing_does_not_matter(self):
        early = QuantileSketch(cap=4)
        late = QuantileSketch(cap=4)
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for v in values:
            early.update(v)
        for v in reversed(values):
            late.update(v)
        assert early.to_dict() == late.to_dict()

    def test_roundtrip(self):
        sketch = QuantileSketch(cap=4)
        for v in (0.5, -1.25, 0.0, 3.5, 2.0, 0.5):
            sketch.update(v)
        state = sketch.to_dict()
        assert sketch_from_dict(state).to_dict() == state

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuantileSketch().update(float("nan"))
        with pytest.raises(ValueError):
            QuantileSketch().update(float("inf"))

    def test_rejects_cap_mismatch_merge(self):
        with pytest.raises(ValueError):
            QuantileSketch(cap=4).merge(QuantileSketch(cap=8))

    def test_negative_zero_normalized(self):
        a = QuantileSketch().update(-0.0)
        b = QuantileSketch().update(0.0)
        assert a.to_dict() == b.to_dict()


class TestTopKSketch:
    def test_exact_small_keyspace(self):
        sketch = TopKSketch(cap=8)
        for key, count in [("YES", 5), ("NO", 3), ("YES", 2)]:
            sketch.update(key, count)
        assert sketch.top() == [("YES", 7), ("NO", 3)]
        assert sketch.other_count == 0

    def test_eviction_keeps_lexicographically_smallest(self):
        sketch = TopKSketch(cap=2)
        sketch.update("c", 10).update("b", 5).update("a", 1).update("d", 7)
        state = sketch.to_dict()
        assert [k for k, _ in state["counts"]] == ["a", "b"]
        assert state["other"] == 17  # c's 10 + d's 7
        assert sketch.count == 23

    def test_retained_set_is_order_invariant(self):
        keys = ["e", "a", "c", "b", "d", "a", "c"]
        forward = TopKSketch(cap=3)
        backward = TopKSketch(cap=3)
        for k in keys:
            forward.update(k)
        for k in reversed(keys):
            backward.update(k)
        assert forward.to_dict() == backward.to_dict()

    def test_rejects_non_str_keys(self):
        with pytest.raises(ValueError):
            TopKSketch().update(3)  # type: ignore[arg-type]

    def test_roundtrip(self):
        sketch = TopKSketch(cap=2).update("x", 4).update("y", 2).update("z", 1)
        state = sketch.to_dict()
        assert sketch_from_dict(state).to_dict() == state


class TestMomentsSketch:
    def test_exact_mean_and_variance(self):
        sketch = MomentsSketch()
        for v in (1.0, 2.0, 3.0, 4.0):
            sketch.update(v)
        assert sketch.mean() == 2.5
        assert sketch.variance() == 1.25

    def test_variance_never_negative_on_floats(self):
        sketch = MomentsSketch()
        for _ in range(1000):
            sketch.update(0.1)
        assert sketch.variance() == 0.0

    def test_roundtrip_preserves_rationals(self):
        sketch = MomentsSketch().update(0.1, 3).update(-2.5)
        state = sketch.to_dict()
        assert sketch_from_dict(state).to_dict() == state

    def test_empty_summary(self):
        summary = MomentsSketch().summary()
        assert summary["count"] == 0
        assert summary["mean"] is None


class TestWireFormat:
    def test_sketch_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            sketch_from_dict({"kind": "hyperloglog"})

    def test_kinds_table_complete(self):
        assert set(SKETCH_KINDS) == {"quantile", "topk", "moments"}

    def test_counts_default_caps(self):
        assert QuantileSketch().cap == DEFAULT_QUANTILE_CAP == 4096
        assert TopKSketch().cap == DEFAULT_TOPK_CAP == 64

    def test_merge_population_kind_mismatch_raises(self):
        a = {"rounds": _quantile_state([(1.0, 1)])}
        b = {"rounds": _moments_state([(1.0, 1)])}
        with pytest.raises(ValueError):
            merge_population(a, b)

    def test_population_summary_sorted_and_none_tolerant(self):
        assert population_summary(None) == {}
        pop = {
            "z": _moments_state([(2.0, 1)]),
            "a": _quantile_state([(1.0, 2)]),
        }
        summary = population_summary(pop)
        assert list(summary) == ["a", "z"]
        assert summary["a"]["count"] == 2


# ----------------------------------------------------------------------
# end-to-end worker parity of the instrumented engines
# ----------------------------------------------------------------------


class TestEnginePopulationParity:
    def test_fault_sweep_population_worker_invariant(self):
        from repro.resilience import fault_sweep

        kwargs = dict(
            algorithms=("neighbor_exchange",),
            kinds=("erasure",),
            rates=(0.0, 0.2),
            n=6,
            trials=3,
            seed=5,
        )
        serial = fault_sweep(workers=1, **kwargs)
        sharded = fault_sweep(workers=2, **kwargs)
        assert serial.population is not None
        assert serial.population == sharded.population
        summary = population_summary(serial.population)
        assert summary["rounds"]["count"] == 1 * 2 * 3  # kinds x rates x trials

    def test_exhaustive_population_worker_and_kernel_invariant(self):
        from repro.lowerbounds.exhaustive import universal_bound_id_oblivious

        kwargs = dict(alphabet=("0", "1"), population=True)
        serial = universal_bound_id_oblivious(4, **kwargs)
        sharded = universal_bound_id_oblivious(4, workers=2, **kwargs)
        assert serial.population is not None
        assert serial.population == sharded.population
        assert (
            population_summary(serial.population)["forced_error"]["count"] == 2**4
        )

    def test_exhaustive_population_off_by_default(self):
        from repro.lowerbounds.exhaustive import universal_bound_id_oblivious

        report = universal_bound_id_oblivious(3, alphabet=("0", "1"))
        assert report.population is None

    def test_sampling_population_worker_invariant(self):
        from repro.information.sampling import estimate_protocol_information
        from repro.twoparty import TrivialPartitionCompProtocol

        n = 5
        serial = estimate_protocol_information(
            TrivialPartitionCompProtocol(n), n, samples=60,
            rng=random.Random(11), workers=1,
        )
        sharded = estimate_protocol_information(
            TrivialPartitionCompProtocol(n), n, samples=60,
            rng=random.Random(11), workers=2,
        )
        assert serial.population is not None
        assert serial.population == sharded.population
