"""Information theory: entropy tools and the Theorem 4.5 engine."""

from repro.information.entropy import (
    binary_entropy,
    conditional_entropy,
    empirical_joint,
    entropy,
    joint_entropy,
    joint_from_function,
    marginal_x,
    marginal_y,
    mutual_information,
    uniform_distribution,
    validate_distribution,
)
from repro.information.sampling import (
    SampledInformationReport,
    clear_run_memo,
    estimate_protocol_information,
)
from repro.information.partition_comp import (
    PartitionCompReport,
    evaluate_protocol,
    hard_distribution,
    implied_round_lower_bound,
    information_lower_bound,
)

__all__ = [
    "PartitionCompReport",
    "SampledInformationReport",
    "binary_entropy",
    "clear_run_memo",
    "estimate_protocol_information",
    "conditional_entropy",
    "empirical_joint",
    "entropy",
    "evaluate_protocol",
    "hard_distribution",
    "implied_round_lower_bound",
    "information_lower_bound",
    "joint_entropy",
    "joint_from_function",
    "marginal_x",
    "marginal_y",
    "mutual_information",
    "uniform_distribution",
    "validate_distribution",
]
