"""The trusted constructor paths == the validating constructor.

``SetPartition.from_rgs`` and ``SetPartition.join`` build their blocks
canonically and skip ``__init__``'s validation. These properties pin
that the result is indistinguishable from a validated partition --
blocks, the element-to-block index, repr, hash and RGS -- for any label
sequence, RGS or not, and that ``join`` agrees with the union-find join
it replaced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.components import UnionFind
from repro.partitions import SetPartition

labels = st.lists(st.integers(min_value=-3, max_value=12), min_size=0, max_size=9)


def validated_from_labels(seq):
    groups = {}
    for x, label in enumerate(seq, 1):
        groups.setdefault(label, []).append(x)
    # Hand the validating constructor unsorted, unordered blocks.
    blocks = [list(reversed(g)) for g in groups.values()]
    return SetPartition(len(seq), reversed(blocks))


def old_join(p, q):
    """The union-find join ``SetPartition.join`` used to run."""
    uf = UnionFind(range(1, p.n + 1))
    for partition in (p, q):
        for block in partition.blocks:
            for x in block[1:]:
                uf.union(block[0], x)
    return SetPartition(p.n, uf.components())


def assert_same(fast, slow):
    assert fast == slow
    assert fast.n == slow.n
    assert fast.blocks == slow.blocks
    assert all(type(b) is tuple for b in fast.blocks)
    assert fast._block_of == slow._block_of
    assert repr(fast) == repr(slow)
    assert hash(fast) == hash(slow)
    assert fast.rgs() == slow.rgs()


@settings(max_examples=300, deadline=None)
@given(labels)
def test_from_rgs_equals_validating_constructor(seq):
    assert_same(SetPartition.from_rgs(seq), validated_from_labels(seq))


@settings(max_examples=300, deadline=None)
@given(labels, st.randoms(use_true_random=False))
def test_join_equals_union_find_join(seq, rnd):
    q_labels = [rnd.randrange(4) for _ in seq]
    p, q = SetPartition.from_rgs(seq), SetPartition.from_rgs(q_labels)
    joined = p.join(q)
    assert_same(joined, old_join(p, q))
    assert_same(joined, SetPartition(joined.n, joined.blocks))
    assert joined == q.join(p)


def test_rgs_round_trips_through_from_rgs():
    p = SetPartition(6, [[6, 2], [5], [4, 1, 3]])
    assert p.rgs() == (0, 1, 0, 0, 2, 1)
    assert SetPartition.from_rgs(p.rgs()) == p
