"""The rank functions' uint8 decode of M_n / E_n == the list of lists.

``m_matrix_rank`` and friends hand ``rank_exact`` the row masks decoded
straight into a uint8 array when the batched numpy engine runs, and the
``partition_matrix`` list of lists otherwise. Every engine must read
both forms alike: the same values, ranks and budget ticks (the budget
boundaries of both forms are pinned in ``tests/kernels/test_modp.py``).
Bareiss multiplies entries far past 255, so a uint8 array there is safe
only while it converts each entry with ``int()``.
"""

import pytest

from repro.kernels import HAVE_NUMPY
from repro.partitions import (
    bell_number,
    matchings_for,
    partition_matrix,
    partitions_for,
    rank_bareiss,
    rank_exact,
)
from repro.partitions.matrices import _rank_rows
from repro.resilience import Budget

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")

FAMILIES = {"M": partitions_for, "E": matchings_for}


def _ticked_rank(matrix, kernel):
    budget = Budget(max_units=10**7)
    return rank_exact(matrix, budget=budget, kernel=kernel), budget.units_done


@needs_numpy
@pytest.mark.parametrize(
    "name,n", [("M", n) for n in range(1, 8)] + [("E", n) for n in (2, 4, 6, 8, 10)]
)
def test_uint8_decode_equals_partition_matrix(name, n):
    family = FAMILIES[name](n)
    rows = _rank_rows(family, "auto")
    assert rows.dtype.name == "uint8"
    assert rows.shape == (len(family), len(family))
    assert rows.tolist() == partition_matrix(family)


def test_reference_kernel_ranks_the_list_of_lists():
    rows = _rank_rows(partitions_for(4), "reference")
    assert isinstance(rows, list)
    assert rows == partition_matrix(partitions_for(4))


@needs_numpy
@pytest.mark.parametrize("kernel", ["auto", "reference"])
@pytest.mark.parametrize("name,n", [("M", 5), ("M", 6), ("E", 8)])
def test_array_and_list_rank_alike(kernel, name, n):
    as_array = _rank_rows(FAMILIES[name](n), "auto")
    as_list = partition_matrix(FAMILIES[name](n))
    ranked = _ticked_rank(as_array, kernel)
    assert ranked == _ticked_rank(as_list, kernel)
    assert ranked[0] == len(as_list)


@needs_numpy
@pytest.mark.parametrize("kernel", ["auto", "reference"])
def test_rank_deficient_array_goes_through_bareiss(kernel):
    # every partition of [5] twice, then the first 60 again: 164 rows of
    # rank B_5 = 52, so no prime certifies full rank and Bareiss settles it
    family = list(partitions_for(5)) * 2 + list(partitions_for(5))[:60]
    as_list = partition_matrix(family)
    as_array = _rank_rows(family, "auto")
    assert len(as_list) <= 220 and as_array.dtype.name == "uint8"
    assert rank_bareiss(as_array) == rank_bareiss(as_list) == bell_number(5)
    assert _ticked_rank(as_array, kernel) == _ticked_rank(as_list, kernel)
    assert _ticked_rank(as_array, kernel)[0] == bell_number(5)
