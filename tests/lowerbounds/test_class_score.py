"""The class scorer equals the per-assignment reference, bit for bit.

``_class_score`` scores one induced set partition with bit lanes;
``_forced_error_and_fooled`` scores one assignment cover by cover and is
the oracle. Floats are compared by ``float.hex``, so an error that
differs in its last bit fails.
"""

from collections import defaultdict

import pytest

from repro.lowerbounds.exhaustive import (
    _class_score,
    _forced_error_and_fooled,
    _lane_masks,
    _precompute_pairs_cached,
    _scan_shard_python,
    assignment_at,
)
from repro.partitions import enumerate_partitions

SIZES = (3, 4, 5, 6, 7)


def _exact(score):
    error, fooled = score
    return error.hex(), fooled


@pytest.mark.parametrize("n", SIZES)
def test_every_three_letter_class_matches_the_oracle(n):
    table = _precompute_pairs_cached(n)
    classes = [p.rgs() for p in enumerate_partitions(n) if p.num_blocks <= 3]
    assert classes
    for rgs in classes:
        assert _exact(_class_score(n, rgs)) == _exact(
            _forced_error_and_fooled(n, rgs, table)
        ), rgs


@pytest.mark.parametrize(
    "n, alphabet",
    [(n, ("0", "1")) for n in SIZES] + [(6, ("", "0", "1"))],
)
def test_scan_scores_every_assignment_like_the_oracle(n, alphabet):
    table = _precompute_pairs_cached(n)
    for index in range(len(alphabet) ** n):
        best, next_index, enumerated, fooled, exhausted = _scan_shard_python(
            n, alphabet, index, index + 1, None
        )
        assert (next_index, enumerated, exhausted) == (index + 1, 1, False)
        assert best[1] == index
        oracle = _forced_error_and_fooled(n, assignment_at(alphabet, n, index), table)
        assert _exact((best[0], fooled)) == _exact(oracle)


@pytest.mark.parametrize("n", SIZES)
def test_fooled_total_depends_only_on_block_sizes(n):
    # S_n permutes the vertices and the one-cycle covers alike, so the
    # fooled total of a class is a function of its block sizes. The
    # error is not: its per-cover sum runs in a different order.
    totals = defaultdict(set)
    for partition in enumerate_partitions(n):
        sizes = tuple(sorted(len(block) for block in partition.blocks))
        totals[sizes].add(_class_score(n, partition.rgs())[1])
    assert all(len(values) == 1 for values in totals.values()), dict(totals)


@pytest.mark.parametrize("n", SIZES)
def test_lane_width_comes_from_the_table(n):
    lane, covers, _masks = _lane_masks(n)
    longest = max(len(pairs) for _cover, pairs in _precompute_pairs_cached(n))
    assert covers == len(_precompute_pairs_cached(n))
    assert 8 * (lane - 1) < max(longest, 1) <= 8 * lane
