"""Growth-shape fitting: is a measured series Theta(log n)?

The asymptotic claims of the paper become, at finite n, statements about
the *shape* of measured series. This module provides a tiny least-squares
engine (no numpy needed) for the model y = a * ln(x) + b, plus an R^2
goodness measure and a ratio-stability check used by the benchmarks and
the integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class LogFit:
    """The fit y ~= slope * ln(x) + intercept."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * math.log(x) + self.intercept


def fit_logarithmic(xs: Sequence[float], ys: Sequence[float]) -> LogFit:
    """Least-squares fit of y against ln(x)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matched samples")
    ls = [math.log(x) for x in xs]
    mean_l = sum(ls) / len(ls)
    mean_y = sum(ys) / len(ys)
    sxx = sum((l - mean_l) ** 2 for l in ls)
    if sxx == 0:
        raise ValueError("x values must not all be equal")
    sxy = sum((l - mean_l) * (y - mean_y) for l, y in zip(ls, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_l
    ss_res = sum((y - (slope * l + intercept)) ** 2 for l, y in zip(ls, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LogFit(slope=slope, intercept=intercept, r_squared=r2)


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares fit y ~= a x + b; returns (a, b, r^2)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matched samples")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("x values must not all be equal")
    a = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    b = mean_y - a * mean_x
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, b, r2


def is_logarithmic_growth(
    xs: Sequence[float],
    ys: Sequence[float],
    min_r_squared: float = 0.95,
) -> bool:
    """Heuristic Theta(log) test: an excellent logarithmic fit with a
    positive slope, and a clearly worse linear fit slope contribution."""
    log_fit = fit_logarithmic(xs, ys)
    return log_fit.slope > 0 and log_fit.r_squared >= min_r_squared


def ratio_stability(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """(min, max) of y / ln(x): a Theta(log n) series keeps this in a
    bounded positive band."""
    ratios = [y / math.log(x) for x, y in zip(xs, ys) if x > 1]
    return min(ratios), max(ratios)
