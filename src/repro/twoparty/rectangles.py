"""Combinatorial rectangles: the structure behind the rank bound.

The deterministic communication lower bounds the paper invokes
(Corollaries 2.4 / 4.2 via [KN97] Lemma 1.28) rest on the fundamental
fact that a c-bit deterministic protocol partitions the input matrix into
at most 2^c *monochromatic combinatorial rectangles* -- transcript classes
of the form A x B. This module makes that fact checkable on the library's
actual protocol objects:

* :func:`transcript_partition` runs a protocol on a grid of inputs and
  groups input pairs by transcript;
* :func:`is_rectangle` tests the A x B product structure of a class;
* :func:`partition_is_monochromatic` checks constancy of a target
  function on every class;
* :func:`rectangle_count_bound` is the 2^c counting bound.

Together with the rank machinery this closes the loop: rank(M) many
linearly independent rows force > log2 rank(M) bits, because fewer bits
would tile M with too few monochromatic rectangles to realize its rank.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Sequence, Set, Tuple

from repro.twoparty.protocol import TwoPartyProtocol

InputPair = Tuple[Hashable, Hashable]


def transcript_partition(
    protocol: TwoPartyProtocol,
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
) -> Dict[str, Set[InputPair]]:
    """Group the grid xs x ys by the protocol's transcript string."""
    partition: Dict[str, Set[InputPair]] = {}
    for x in xs:
        for y in ys:
            result = protocol.run(x, y)
            partition.setdefault(result.transcript_string(), set()).add((x, y))
    return partition


def is_rectangle(pairs: Set[InputPair]) -> bool:
    """True iff the set equals (its rows) x (its columns)."""
    rows = {x for x, _y in pairs}
    cols = {y for _x, y in pairs}
    return len(pairs) == len(rows) * len(cols) and all(
        (x, y) in pairs for x in rows for y in cols
    )


def all_classes_are_rectangles(partition: Dict[str, Set[InputPair]]) -> bool:
    """The rectangle property of deterministic protocols, checked."""
    return all(is_rectangle(pairs) for pairs in partition.values())


def partition_is_monochromatic(
    partition: Dict[str, Set[InputPair]],
    f: Callable[[Hashable, Hashable], Hashable],
) -> bool:
    """Is the target function constant on every transcript class?"""
    for pairs in partition.values():
        values = {f(x, y) for x, y in pairs}
        if len(values) > 1:
            return False
    return True


def worst_case_bits(
    protocol: TwoPartyProtocol,
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
) -> int:
    """Maximum total bits over the grid."""
    return max(protocol.run(x, y).total_bits for x in xs for y in ys)


def rectangle_count_bound(bits: int) -> int:
    """A c-bit protocol has at most 2^c distinct transcripts."""
    return 2**bits


def verify_rectangle_structure(
    protocol: TwoPartyProtocol,
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
    f: Callable[[Hashable, Hashable], Hashable],
) -> Tuple[bool, bool, int, int]:
    """One-shot check returning (rectangles ok, monochromatic ok,
    #classes, 2^worst-case-bits)."""
    partition = transcript_partition(protocol, xs, ys)
    return (
        all_classes_are_rectangles(partition),
        partition_is_monochromatic(partition, f),
        len(partition),
        rectangle_count_bound(worst_case_bits(protocol, xs, ys)),
    )
