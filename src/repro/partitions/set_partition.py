"""Set partitions of [n] and the partition lattice operations.

The KT-1 lower bounds (Section 4) revolve around the lattice of set
partitions of the ground set [n] = {1, .., n} ordered by refinement:

* P refines P' iff every block of P is contained in a block of P';
* the *join* P ∨ P' is the finest partition that both refine -- its blocks
  are the connected components of the "union" relation (Theorem 4.3 uses
  exactly this reachability characterization);
* the *meet* P ∧ P' has as blocks the nonempty pairwise intersections.

:class:`SetPartition` is immutable and canonicalized (blocks sorted by
minimum element, elements sorted within blocks), so structural equality and
hashing behave like mathematical equality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import PartitionError

Block = Tuple[int, ...]


class SetPartition:
    """An immutable set partition of the ground set {1, .., n}."""

    __slots__ = ("_n", "_blocks", "_block_of")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        self._n = n
        cleaned: List[Block] = []
        seen: set = set()
        for block in blocks:
            b = tuple(sorted(set(block)))
            if not b:
                continue
            for x in b:
                if not 1 <= x <= n:
                    raise PartitionError(f"element {x} outside ground set [{n}]")
                if x in seen:
                    raise PartitionError(f"element {x} appears in two blocks")
                seen.add(x)
            cleaned.append(b)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise PartitionError(f"blocks do not cover the ground set; missing {missing}")
        cleaned.sort(key=lambda b: b[0])
        self._blocks: Tuple[Block, ...] = tuple(cleaned)
        self._block_of: Dict[int, int] = {
            x: i for i, b in enumerate(self._blocks) for x in b
        }

    @classmethod
    def _canonical(cls, n: int, blocks: Tuple[Block, ...]) -> "SetPartition":
        """Trusted constructor for blocks that are already canonical.

        ``blocks`` must cover [n] exactly once, each block ascending, the
        blocks ordered by minimum. Nothing is checked: the public
        constructor validates, and internal callers that build canonical
        blocks by construction skip that cost.
        """
        self = object.__new__(cls)
        self._n = n
        self._blocks = blocks
        self._block_of = {x: i for i, b in enumerate(blocks) for x in b}
        return self

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def finest(n: int) -> "SetPartition":
        """The discrete partition (1)(2)...(n) -- bottom of the lattice."""
        return SetPartition(n, [[i] for i in range(1, n + 1)])

    @staticmethod
    def coarsest(n: int) -> "SetPartition":
        """The trivial one-block partition 1 = ([n]) -- top of the lattice."""
        return SetPartition(n, [list(range(1, n + 1))])

    @staticmethod
    def from_rgs(rgs: Sequence[int]) -> "SetPartition":
        """From a restricted growth string: rgs[i] is the block index of
        element i+1 (0-based block labels in order of first appearance).

        Any label sequence is accepted: elements with equal labels share a
        block. Grouping in element order by first label appearance yields
        ascending blocks ordered by minimum, which is already canonical.
        """
        blocks: Dict[int, List[int]] = {}
        for x, label in enumerate(rgs, 1):
            blocks.setdefault(label, []).append(x)
        return SetPartition._canonical(
            len(rgs), tuple([tuple(b) for b in blocks.values()])
        )

    @staticmethod
    def from_string(n: int, text: str) -> "SetPartition":
        """Parse the paper's notation, e.g. ``"(1,2)(3,4)(5)"``."""
        text = text.replace(" ", "")
        if not (text.startswith("(") and text.endswith(")")):
            raise PartitionError(f"malformed partition string {text!r}")
        blocks = []
        for chunk in text[1:-1].split(")("):
            try:
                blocks.append([int(x) for x in chunk.split(",") if x])
            except ValueError as exc:
                raise PartitionError(f"malformed block {chunk!r}") from exc
        return SetPartition(n, blocks)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def blocks(self) -> Tuple[Block, ...]:
        return self._blocks

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def block_containing(self, x: int) -> Block:
        return self._blocks[self._block_of[x]]

    def same_block(self, x: int, y: int) -> bool:
        return self._block_of[x] == self._block_of[y]

    def is_finest(self) -> bool:
        return len(self._blocks) == self._n

    def is_coarsest(self) -> bool:
        return len(self._blocks) == 1

    def block_sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(len(b) for b in self._blocks))

    def is_perfect_matching(self) -> bool:
        """True iff every block has exactly two elements (TwoPartition input)."""
        return all(len(b) == 2 for b in self._blocks)

    def rgs(self) -> Tuple[int, ...]:
        """The restricted growth string of this partition.

        Blocks are ordered by minimum, so a block's index is its label in
        order of first appearance.
        """
        block_of = self._block_of
        return tuple([block_of[x] for x in range(1, self._n + 1)])

    # ------------------------------------------------------------------
    # lattice operations
    # ------------------------------------------------------------------
    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of other."""
        self._check_ground(other)
        for block in self._blocks:
            target = other.block_containing(block[0])
            if not set(block) <= set(target):
                return False
        return True

    def join(self, other: "SetPartition") -> "SetPartition":
        """P ∨ P': the finest common coarsening.

        The blocks are the connected components of the relation "same
        block in either partition" -- the reachability characterization
        proved in Theorem 4.3. A union-find over the int list 1..n links
        every root under the smaller one, so each root is its
        component's minimum; grouping the elements in ascending order by
        root then yields canonical blocks directly.
        """
        self._check_ground(other)
        n = self._n
        # parent[x] <= x throughout: a root is linked under a smaller one.
        parent = list(range(n + 1))
        for partition in (self, other):
            for block in partition._blocks:
                ra = block[0]
                while parent[ra] != ra:
                    ra = parent[ra]
                for rb in block[1:]:
                    while parent[rb] != rb:
                        rb = parent[rb]
                    if rb < ra:
                        parent[ra] = ra = rb
                    elif ra < rb:
                        parent[rb] = ra
        # In ascending x, parent[x]'s root is already resolved.
        groups: Dict[int, List[int]] = {}
        for x in range(1, n + 1):
            root = parent[x] = parent[parent[x]]
            if root == x:
                groups[x] = [x]
            else:
                groups[root].append(x)
        return SetPartition._canonical(n, tuple([tuple(g) for g in groups.values()]))

    def meet(self, other: "SetPartition") -> "SetPartition":
        """P ∧ P': the coarsest common refinement (blockwise intersections)."""
        self._check_ground(other)
        blocks: Dict[Tuple[int, int], List[int]] = {}
        for x in range(1, self._n + 1):
            key = (self._block_of[x], other._block_of[x])
            blocks.setdefault(key, []).append(x)
        return SetPartition(self._n, blocks.values())

    def _check_ground(self, other: "SetPartition") -> None:
        if self._n != other._n:
            raise PartitionError(
                f"partitions over different ground sets [{self._n}] vs [{other._n}]"
            )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self._n == other._n and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._n, self._blocks))

    def __or__(self, other: "SetPartition") -> "SetPartition":
        return self.join(other)

    def __and__(self, other: "SetPartition") -> "SetPartition":
        return self.meet(other)

    def __le__(self, other: "SetPartition") -> bool:
        """Refinement order: P <= P' iff P refines P'."""
        return self.refines(other)

    def __repr__(self) -> str:
        return "".join("(" + ",".join(str(x) for x in b) + ")" for b in self._blocks)


def joins_to_top(pa: SetPartition, pb: SetPartition) -> bool:
    """The Partition problem predicate: is P_A ∨ P_B the trivial partition?

    Equivalent to ``pa.join(pb).is_coarsest()`` but only counts
    components instead of constructing the join: union-find over the
    *blocks* of both partitions (element x merges its pa-block with its
    pb-block), so the join is trivial iff one component remains. The
    M_n / E_n builders do not call it per cell: they read the whole
    matrix off the lattice's Möbius function
    (:func:`repro.partitions.matrices._join_masks`), and the tests check
    them against this predicate entrywise.
    """
    pa._check_ground(pb)
    n = pa.n
    block_a = pa._block_of
    block_b = pb._block_of
    na = pa.num_blocks
    parent = list(range(na + pb.num_blocks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for x in range(1, n + 1):
        ra = find(block_a[x])
        rb = find(na + block_b[x])
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1
