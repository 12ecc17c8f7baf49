"""The Theorem 4.5 engine: Monte-Carlo KT-1 bound for ConnectedComponents.

Combines the information-theoretic PartitionComp machinery
(:mod:`repro.information.partition_comp`) with the Section 4.3 simulation:
any eps-error ConnectedComponents algorithm in KT-1 BCC(1), run on the
reduction graphs, yields an eps-error PartitionComp protocol whose
information content is at least (1 - eps) log2 B_n, so its communication
-- t rounds * 8n bits -- is Omega(n log n), forcing t = Omega(log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.randomness import PublicCoin
from repro.information.partition_comp import (
    PartitionCompReport,
    evaluate_protocol,
    information_lower_bound,
)
from repro.twoparty.simulation import BCCSimulationProtocol, PARTITION, simulation_bits_per_round


@dataclass(frozen=True)
class KT1InformationBound:
    """One row of the Theorem 4.5 accounting."""

    ground_set: int
    error_rate: float
    information_bound_bits: float  # (1 - eps) log2 B_n
    bits_per_round: int
    round_lower_bound: float

    @property
    def normalized(self) -> float:
        return self.round_lower_bound / math.log2(4 * self.ground_set)


def components_round_bound(n: int, error_rate: float = 1 / 3) -> KT1InformationBound:
    """The Theorem 4.5 bound, numerically, for ground set [n]."""
    info = information_lower_bound(n, error_rate)
    bits = simulation_bits_per_round(PARTITION, n)
    return KT1InformationBound(
        ground_set=n,
        error_rate=error_rate,
        information_bound_bits=info,
        bits_per_round=bits,
        round_lower_bound=info / bits,
    )


def information_bound_table(
    ns: List[int], error_rate: float = 1 / 3
) -> List[KT1InformationBound]:
    return [components_round_bound(n, error_rate) for n in ns]


def measure_bcc_algorithm_information(
    factory,
    n: int,
    rounds: int,
    coin: Optional[PublicCoin] = None,
) -> PartitionCompReport:
    """Evaluate the Theorem 4.5 quantities on a *real* KT-1 BCC algorithm.

    The algorithm is wrapped in the Section 4.3 simulation in "components"
    mode and run against the full hard distribution (P_A uniform, P_B the
    finest partition). The report's mutual information then lower-bounds
    the protocol's -- hence the algorithm's -- communication.
    """
    protocol = BCCSimulationProtocol(
        PARTITION, factory, rounds, mode="components", coin=coin
    )
    return evaluate_protocol(protocol, n)
