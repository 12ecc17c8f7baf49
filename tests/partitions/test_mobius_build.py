"""The Möbius-factorized M_n / E_n build == the pairwise join, entrywise.

The builders read every row off M = Z·D·Zᵀ (Z[P, x] = [P <= x],
D = diag(mu(x, 1))) instead of joining each pair of partitions. The
union-find predicate ``joins_to_top`` stays as the oracle here: every
cell of M_n (n <= 7), E_n (n <= 8) and random subfamilies with
duplicates must equal it. A guard test pins that the builders no longer
call it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.partitions import (
    SetPartition,
    build_e_matrix,
    build_m_matrix,
    clear_enumeration_cache,
    matchings_for,
    partition_matrix,
    partitions_for,
)
from repro.partitions import matrices, set_partition
from repro.partitions.set_partition import joins_to_top


def oracle(family):
    return [[1 if joins_to_top(pa, pb) else 0 for pb in family] for pa in family]


@pytest.mark.parametrize("n", range(1, 8))
def test_m_matrix_equals_the_join_oracle(n):
    partitions, matrix = build_m_matrix(n)
    assert matrix == oracle(partitions)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_e_matrix_equals_the_join_oracle(n):
    matchings, matrix = build_e_matrix(n)
    assert matrix == oracle(matchings)


def test_empty_ground_set():
    # The empty partition has 0 blocks, where mu(x, 1) is undefined;
    # it never joins to a one-block top.
    family = [SetPartition(0, [])]
    assert partition_matrix(family) == oracle(family) == [[0]]
    assert partition_matrix(list(partitions_for(0))) == [[0]]


def test_empty_family():
    assert partition_matrix([]) == []


def test_mixed_ground_sets_raise_like_the_oracle():
    family = [SetPartition.finest(3), SetPartition.finest(4)]
    with pytest.raises(PartitionError):
        oracle(family)
    with pytest.raises(PartitionError):
        partition_matrix(family)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_subfamilies_equal_the_oracle(data):
    n = data.draw(st.integers(min_value=0, max_value=6), label="n")
    table = partitions_for(n)
    picks = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(table) - 1), max_size=40),
        label="picks",
    )
    family = [table[i] for i in picks]  # any order, duplicates allowed
    assert partition_matrix(family) == oracle(family)


def test_builders_never_call_the_join(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("joins_to_top called on a build path")

    monkeypatch.setattr(set_partition, "joins_to_top", boom)
    monkeypatch.setattr(matrices, "joins_to_top", boom, raising=False)
    clear_enumeration_cache()
    try:
        m6 = build_m_matrix(6)[1]
        e6 = build_e_matrix(6)[1]
    finally:
        clear_enumeration_cache()
    monkeypatch.undo()
    assert m6 == oracle(partitions_for(6))
    assert e6 == oracle(matchings_for(6))
