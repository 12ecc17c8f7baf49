"""The exhaustive search's pair table == the crossing oracle.

``_precompute_pairs_cached`` reads each one-cycle cover's disconnecting
pairs off the cycle's orientation. ``disconnecting_pairs`` builds every
crossed cover with ``cross_cover`` and counts its cycles; it stays public
as the oracle here. A guard test pins that the table no longer calls
``cross_cover``.
"""

import random

import pytest

from repro.instances import enumerate_one_cycle_covers
from repro.lowerbounds import exhaustive
from repro.lowerbounds.exhaustive import (
    _precompute_pairs_cached,
    clear_pair_cache,
    disconnecting_pairs,
)


@pytest.fixture
def fresh_pair_cache():
    clear_pair_cache()
    yield
    clear_pair_cache()


@pytest.mark.parametrize("n", range(3, 8))
def test_table_equals_the_crossing_oracle(n, fresh_pair_cache):
    table = _precompute_pairs_cached(n)
    covers = list(enumerate_one_cycle_covers(n))
    assert [cover for cover, _pairs in table] == covers
    for cover, pairs in table:
        assert pairs == tuple(disconnecting_pairs(cover))


def test_sampled_n8_covers_equal_the_crossing_oracle():
    covers = list(enumerate_one_cycle_covers(8))
    for cover in random.Random(8).sample(covers, 40):
        assert exhaustive._splitting_pairs(cover) == disconnecting_pairs(cover)


def test_table_does_not_build_crossed_covers(monkeypatch, fresh_pair_cache):
    def boom(*_args, **_kwargs):
        raise AssertionError("the pair table called cross_cover")

    monkeypatch.setattr(exhaustive, "cross_cover", boom)
    table = _precompute_pairs_cached(6)
    assert len(table) == 60
    with pytest.raises(AssertionError):
        disconnecting_pairs(table[0][0])
