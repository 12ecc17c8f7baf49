"""Cooperative run budgets for long-running searches.

The exhaustive universal-bound search, the sampled information estimator,
and the exact rank engines can run for minutes to hours. A
:class:`Budget` turns "run forever and hope" into "run exactly this much
and surface the best partial answer": inner loops call :meth:`Budget.tick`
(cheap -- an int compare, plus a clock read at most every
``check_interval`` ticks), and when either limit trips a
:class:`~repro.errors.BudgetExceededError` propagates out carrying the
caller-attached partial result.

A budget measures *work units* (assignments enumerated, samples drawn,
pivot rows eliminated -- whatever the loop's natural unit is) and wall
clock. Both limits are optional; a limitless Budget never trips and
costs one compare per tick.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import BudgetExceededError

__all__ = ["Budget"]


class Budget:
    """Wall-clock + work-unit budget, checked cooperatively.

    Parameters
    ----------
    wall_seconds:
        Maximum elapsed wall-clock time, or None for unlimited. The clock
        starts at construction (or at an explicit :meth:`restart`).
    max_units:
        Maximum work units, or None for unlimited.
    check_interval:
        Read the clock only every this-many ticks; keeps the per-tick cost
        of a wall-clock budget to an int compare in the common case.
    """

    __slots__ = ("wall_seconds", "max_units", "check_interval", "_units", "_started", "_next_clock_check")

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        max_units: Optional[int] = None,
        check_interval: int = 64,
    ):
        if wall_seconds is not None and wall_seconds <= 0:
            raise ValueError(f"wall_seconds must be > 0, got {wall_seconds}")
        if max_units is not None and max_units <= 0:
            raise ValueError(f"max_units must be > 0, got {max_units}")
        if check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval}")
        self.wall_seconds = wall_seconds
        self.max_units = max_units
        self.check_interval = check_interval
        self._units = 0
        self._started = time.monotonic()
        self._next_clock_check = check_interval

    # ------------------------------------------------------------------
    @property
    def units_done(self) -> int:
        return self._units

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining_units(self) -> Optional[int]:
        if self.max_units is None:
            return None
        return max(0, self.max_units - self._units)

    def remaining_seconds(self) -> Optional[float]:
        if self.wall_seconds is None:
            return None
        return max(0.0, self.wall_seconds - self.elapsed())

    def deadline(self) -> Optional[float]:
        """The absolute wall-clock deadline on :func:`time.monotonic`."""
        if self.wall_seconds is None:
            return None
        return self._started + self.wall_seconds

    def restart(self) -> None:
        """Reset both the clock and the unit counter."""
        self._units = 0
        self._started = time.monotonic()
        self._next_clock_check = self.check_interval

    # ------------------------------------------------------------------
    def tick(self, units: int = 1, partial=None) -> None:
        """Record ``units`` of work; raise if either limit is now exceeded.

        ``partial`` is attached to the raised
        :class:`~repro.errors.BudgetExceededError` as the best-so-far
        result, so interactive callers can report progress.
        """
        self._units += units
        if self.max_units is not None and self._units >= self.max_units:
            raise BudgetExceededError(
                f"work budget exhausted: {self._units} >= {self.max_units} units",
                partial=partial,
            )
        if self.wall_seconds is not None and self._units >= self._next_clock_check:
            self._next_clock_check = self._units + self.check_interval
            elapsed = self.elapsed()
            if elapsed >= self.wall_seconds:
                raise BudgetExceededError(
                    f"wall-clock budget exhausted: {elapsed:.3f}s >= "
                    f"{self.wall_seconds:.3f}s after {self._units} units",
                    partial=partial,
                )

    def check(self, partial=None) -> None:
        """Wall-clock-only check (no unit accounting); for coarse loops."""
        if self.wall_seconds is not None:
            elapsed = self.elapsed()
            if elapsed >= self.wall_seconds:
                raise BudgetExceededError(
                    f"wall-clock budget exhausted: {elapsed:.3f}s >= "
                    f"{self.wall_seconds:.3f}s after {self._units} units",
                    partial=partial,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(wall_seconds={self.wall_seconds}, max_units={self.max_units}, "
            f"units_done={self._units})"
        )
