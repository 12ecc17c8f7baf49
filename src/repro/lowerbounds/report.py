"""One-call summary: all three results of the paper at a chosen scale.

:func:`full_report` runs a representative slice of every engine --
Theorem 3.5 (closed form + operational), Theorem 3.1 (forced error),
Theorem 4.4 (rank arithmetic), Theorem 4.5 (exact information) -- and
returns structured rows suitable for printing or programmatic use. The
CLI's ``all`` subcommand and downstream notebooks are the intended
callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.algorithm import SilentAlgorithm
from repro.core.model import BCC1_KT0
from repro.core.simulator import Simulator
from repro.information.partition_comp import evaluate_protocol
from repro.lowerbounds.kt0_constant_error import forced_error_of_algorithm
from repro.lowerbounds.kt0_star import fool_algorithm, theorem_3_5_error_bound
from repro.lowerbounds.kt1_rank import multicycle_round_bound
from repro.twoparty.upper_bounds import TrivialPartitionCompProtocol


@dataclass
class FullReport:
    """Structured summary of one run of every engine."""

    star_n: int
    star_rounds: int
    star_error_floor: float
    star_achieved_error: float
    star_pairs_verified: bool

    forced_n: int
    forced_rounds: int
    forced_error: float

    rank_n: int
    rank_cc_bits: float
    rank_round_bound: float

    info_n: int
    info_bits: float
    info_input_entropy: float
    info_chain_holds: bool

    def rows(self) -> List[Tuple[str, str, str]]:
        """(result, quantity, value) rows for table rendering."""
        return [
            ("Thm 3.5", f"error floor (n={self.star_n}, t={self.star_rounds})", f"{self.star_error_floor:.4f}"),
            ("Thm 3.5", "operational adversary achieved error", f"{self.star_achieved_error:.4f}"),
            ("Thm 3.5", "all fooling pairs verified", str(self.star_pairs_verified)),
            ("Thm 3.1", f"forced error (n={self.forced_n}, t={self.forced_rounds})", f"{self.forced_error:.4f}"),
            ("Thm 4.4", f"CC bits (n={self.rank_n})", f"{self.rank_cc_bits:.2f}"),
            ("Thm 4.4", "round lower bound", f"{self.rank_round_bound:.4f}"),
            ("Thm 4.5", f"I(P_A; Pi) exact (n={self.info_n})", f"{self.info_bits:.4f}"),
            ("Thm 4.5", "H(P_A) = log2 B_n", f"{self.info_input_entropy:.4f}"),
            ("Thm 4.5", "inequality chain holds", str(self.info_chain_holds)),
        ]


def full_report(
    star_n: int = 15,
    star_rounds: int = 2,
    forced_n: int = 6,
    forced_rounds: int = 2,
    rank_n: int = 16,
    info_n: int = 5,
) -> FullReport:
    """Run every engine once at laptop-friendly scales."""
    sim = Simulator(BCC1_KT0)

    star = fool_algorithm(sim, SilentAlgorithm, star_n, star_rounds)
    forced = forced_error_of_algorithm(sim, SilentAlgorithm, forced_n, forced_rounds)
    rank = multicycle_round_bound(rank_n)
    info = evaluate_protocol(TrivialPartitionCompProtocol(info_n), info_n)

    return FullReport(
        star_n=star_n,
        star_rounds=star_rounds,
        star_error_floor=theorem_3_5_error_bound(star_n, star_rounds),
        star_achieved_error=star.achieved_error,
        star_pairs_verified=star.all_pairs_indistinguishable,
        forced_n=forced_n,
        forced_rounds=forced_rounds,
        forced_error=forced.forced_error,
        rank_n=rank_n,
        rank_cc_bits=rank.cc_bits,
        rank_round_bound=rank.round_lower_bound,
        info_n=info_n,
        info_bits=info.information,
        info_input_entropy=info.input_entropy,
        info_chain_holds=info.chain_holds(),
    )
