"""The 2-party problems of Section 4: Partition, TwoPartition, PartitionComp.

* **Partition** [HMT88]: Alice holds a set partition P_A of [n], Bob holds
  P_B; output 1 iff P_A ∨ P_B = 1 (the trivial one-block partition).
* **TwoPartition** (Section 4.1): the promise restriction where every block
  of both inputs has exactly two elements.
* **PartitionComp** (Section 4.4): same inputs, but both parties must
  output the join P_A ∨ P_B itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.partitions.set_partition import SetPartition, joins_to_top


@dataclass(frozen=True)
class PartitionProblem:
    """Decision: is P_A ∨ P_B the trivial partition?"""

    n: int
    name: str = "Partition"

    def valid_input(self, pa: SetPartition, pb: SetPartition) -> bool:
        return pa.n == self.n and pb.n == self.n

    def answer(self, pa: SetPartition, pb: SetPartition) -> int:
        return 1 if joins_to_top(pa, pb) else 0


@dataclass(frozen=True)
class TwoPartitionProblem:
    """Partition restricted to perfect-matching inputs (even n)."""

    n: int
    name: str = "TwoPartition"

    def __post_init__(self) -> None:
        if self.n % 2 != 0:
            raise ValueError(f"TwoPartition needs an even ground set, got n={self.n}")

    def valid_input(self, pa: SetPartition, pb: SetPartition) -> bool:
        return (
            pa.n == self.n
            and pb.n == self.n
            and pa.is_perfect_matching()
            and pb.is_perfect_matching()
        )

    def answer(self, pa: SetPartition, pb: SetPartition) -> int:
        return 1 if joins_to_top(pa, pb) else 0


@dataclass(frozen=True)
class PartitionCompProblem:
    """Search: output the join P_A ∨ P_B itself."""

    n: int
    name: str = "PartitionComp"

    def valid_input(self, pa: SetPartition, pb: SetPartition) -> bool:
        return pa.n == self.n and pb.n == self.n

    def answer(self, pa: SetPartition, pb: SetPartition) -> SetPartition:
        return pa.join(pb)

    def correct(self, pa: SetPartition, pb: SetPartition, output: Any) -> bool:
        return output == self.answer(pa, pb)
