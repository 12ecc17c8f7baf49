"""Shannon entropy, conditional entropy, and mutual information.

Exact computations over finite joint distributions, used by the
Theorem 4.5 engine: the hard distribution there is small enough (B_n
inputs at the n we enumerate) that every quantity in the proof's chain

    |Pi| >= H(Pi) >= I(Pi; P_A) = H(P_A) - H(P_A | Pi)

can be evaluated exactly rather than estimated.

Distributions are dictionaries mapping outcomes to probabilities; joints
map (x, y) pairs. All logarithms are base 2 (bits).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, Mapping, Tuple

Outcome = Hashable
Distribution = Mapping[Outcome, float]
Joint = Mapping[Tuple[Outcome, Outcome], float]

_EPS = 1e-12


def validate_distribution(dist: Distribution) -> None:
    """Check non-negativity and unit total mass (within tolerance)."""
    total = 0.0
    for outcome, p in dist.items():
        if p < -_EPS:
            raise ValueError(f"negative probability {p} for {outcome!r}")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")


def entropy(dist: Distribution) -> float:
    """H(X) = -sum p log2 p, with 0 log 0 = 0."""
    validate_distribution(dist)
    # 0.0 - s rather than -s: a point mass has H = +0.0, not -0.0.
    return 0.0 - sum(p * math.log2(p) for p in dist.values() if p > _EPS)


def marginal_x(joint: Joint) -> Dict[Outcome, float]:
    """The X-marginal of a joint distribution over (X, Y)."""
    out: Dict[Outcome, float] = defaultdict(float)
    for (x, _y), p in joint.items():
        out[x] += p
    return dict(out)


def marginal_y(joint: Joint) -> Dict[Outcome, float]:
    """The Y-marginal."""
    out: Dict[Outcome, float] = defaultdict(float)
    for (_x, y), p in joint.items():
        out[y] += p
    return dict(out)


def joint_entropy(joint: Joint) -> float:
    """H(X, Y)."""
    return entropy(joint)


def conditional_entropy(joint: Joint) -> float:
    """H(X | Y) = H(X, Y) - H(Y)."""
    return joint_entropy(joint) - entropy(marginal_y(joint))


def mutual_information(joint: Joint) -> float:
    """I(X; Y) = H(X) + H(Y) - H(X, Y); clipped at 0 against float error."""
    value = entropy(marginal_x(joint)) + entropy(marginal_y(joint)) - joint_entropy(joint)
    return max(0.0, value)


def binary_entropy(p: float) -> float:
    """h(p) = -p log p - (1-p) log (1-p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
