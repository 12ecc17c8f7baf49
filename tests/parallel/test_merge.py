"""Laws of the shard folds: the algebra behind order-invariance.

``exhaustive`` folds its shard bests with :func:`merge_min_keyed` and
``sampling`` its shard joints with :func:`merge_counts`, each starting
from its identity (``None`` and ``{}``).
"""

from collections import Counter
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.information.sampling import merge_counts
from repro.lowerbounds.exhaustive import merge_min_keyed

keyed = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    ),
)


@given(a=keyed, b=keyed, c=keyed)
@settings(max_examples=200, deadline=None)
def test_min_keyed_is_associative_and_commutative(a, b, c):
    assert merge_min_keyed(merge_min_keyed(a, b), c) == merge_min_keyed(
        a, merge_min_keyed(b, c)
    )
    assert merge_min_keyed(a, b) == merge_min_keyed(b, a)
    assert merge_min_keyed(a, None) == a
    assert merge_min_keyed(None, a) == a


@given(values=st.lists(keyed, max_size=20))
@settings(max_examples=100, deadline=None)
def test_min_keyed_fold_matches_global_min(values):
    folded = reduce(merge_min_keyed, values, None)
    candidates = [v for v in values if v is not None]
    assert folded == (min(candidates) if candidates else None)


def test_min_keyed_ties_break_toward_lowest_index():
    # The serial loop updates on strict improvement only, so the first
    # (= lowest-index) candidate at the minimum error must win no matter
    # which shard reports first.
    assert merge_min_keyed((0.25, 7), (0.25, 3)) == (0.25, 3)
    assert merge_min_keyed((0.25, 3), (0.25, 7)) == (0.25, 3)


count_dicts = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(min_value=1, max_value=100),
    max_size=8,
)


@given(parts=st.lists(count_dicts, max_size=6))
@settings(max_examples=100, deadline=None)
def test_sum_counts_fold_matches_counter_sum(parts):
    expected = Counter()
    for part in parts:
        expected.update(part)
    # fold on deep copies: merge_counts mutates its accumulator
    folded = reduce(merge_counts, [dict(p) for p in parts], {})
    assert folded == dict(expected)


@given(parts=st.lists(count_dicts, min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_sum_counts_is_order_invariant(parts):
    forward = reduce(merge_counts, [dict(p) for p in parts], {})
    backward = reduce(merge_counts, [dict(p) for p in reversed(parts)], {})
    assert forward == backward


def test_merge_counts_mutates_left():
    a = {"x": 1}
    out = merge_counts(a, {"x": 2, "y": 3})
    assert out is a and a == {"x": 3, "y": 3}


def test_fold_skips_none_entries():
    assert reduce(merge_min_keyed, [None, (0.5, 2), None, (0.5, 1)], None) == (0.5, 1)
