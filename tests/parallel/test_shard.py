"""ShardPlan invariants: coverage, balance, determinism, budget splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import Shard, ShardBudget, ShardPlan, derive_seed, split_budget
from repro.resilience import Budget

totals = st.integers(min_value=0, max_value=500)
shard_counts = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32)


@given(total=totals, k=shard_counts, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_plan_covers_range_contiguously(total, k, seed):
    plan = ShardPlan(total, k, base_seed=seed)
    shards = plan.shards()
    assert sum(s.size for s in shards) == total
    cursor = 0
    for s in shards:
        assert s.start == cursor
        assert s.stop > s.start  # never an empty shard
        cursor = s.stop
    assert cursor == total


@given(total=totals, k=shard_counts)
@settings(max_examples=100, deadline=None)
def test_plan_is_balanced(total, k):
    sizes = [s.size for s in ShardPlan(total, k).shards()]
    if sizes:
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) == min(k, total)


@given(total=totals, k=shard_counts, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_plan_is_deterministic(total, k, seed):
    a = ShardPlan(total, k, base_seed=seed).shards()
    b = ShardPlan(total, k, base_seed=seed).shards()
    assert a == b


def test_seed_derivation_is_pure_arithmetic():
    # SHA-256 based: stable across processes and platforms, in [0, 2^63).
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)
    assert 0 <= derive_seed(7, 3) < 2**63
    plan = ShardPlan(10, 3, base_seed=7)
    assert [s.seed for s in plan.shards()] == [derive_seed(7, i) for i in range(3)]


@given(total=totals, units=st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_for_units_caps_shard_size(total, units):
    shards = ShardPlan.for_units(total, units).shards()
    assert all(s.size <= units for s in shards)
    assert len(shards) == -(-total // units)  # no more shards than needed
    with pytest.raises(ValueError):
        ShardPlan.for_units(total, 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardPlan(-1, 2)
    with pytest.raises(ValueError):
        ShardPlan(10, 0)
    with pytest.raises(ValueError):
        Shard(index=0, start=5, stop=3, seed=0)


# ----------------------------------------------------------------------
# budget splitting
# ----------------------------------------------------------------------
def test_split_budget_none_parent():
    assert split_budget(None, [3, 4, 5]) == [None, None, None]


@given(
    units=st.integers(min_value=1, max_value=400),
    sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_split_budget_conserves_units(units, sizes):
    budget = Budget(max_units=units)
    shards = split_budget(budget, sizes)
    allocations = [sb.max_units for sb in shards]
    # never hand a shard more than its work; never mint new units
    assert all(0 <= a <= size for a, size in zip(allocations, sizes))
    assert sum(allocations) == min(units, sum(sizes))


def test_split_budget_surplus_cascades():
    # Units fill shards in shard order: what the first shard cannot use
    # cascades to the next, so a capped run scans exactly a prefix.
    shards = split_budget(Budget(max_units=15), [10, 10])
    assert [sb.max_units for sb in shards] == [10, 5]
    shards = split_budget(Budget(max_units=100), [3, 10])
    assert [sb.max_units for sb in shards] == [3, 10]
    shards = split_budget(Budget(max_units=4), [3, 10, 10])
    assert [sb.max_units for sb in shards] == [3, 1, 0]


def test_split_budget_exhausted_parent_yields_zero_unit_shards():
    from repro.errors import BudgetExceededError

    budget = Budget(max_units=2)
    budget.tick()
    with pytest.raises(BudgetExceededError):
        budget.tick()  # consumes the final unit and trips
    assert budget.remaining_units() == 0
    shards = split_budget(budget, [5, 5])
    assert all(sb.max_units == 0 for sb in shards)


def test_shard_budget_to_budget():
    import time

    from repro.errors import BudgetExceededError

    assert ShardBudget(max_units=None, deadline=None).to_budget() is None
    b = ShardBudget(max_units=5, deadline=None).to_budget()
    assert b is not None and b.remaining_units() == 5
    # the shard inherits what is left of the parent's one deadline
    b = ShardBudget(max_units=None, deadline=time.monotonic() + 100.0).to_budget()
    assert 99.0 < b.remaining_seconds() <= 100.0
    with pytest.raises(BudgetExceededError):
        ShardBudget(max_units=0, deadline=None).to_budget()
    with pytest.raises(BudgetExceededError):
        ShardBudget(max_units=None, deadline=time.monotonic() - 1.0).to_budget()
