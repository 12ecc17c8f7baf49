"""Tests for the cooperative run budget."""

import time

import pytest

from repro.errors import BudgetExceededError
from repro.resilience import Budget


class TestWorkUnitCap:
    def test_tick_raises_at_cap(self):
        budget = Budget(max_units=3, check_interval=1)
        budget.tick()
        budget.tick()
        with pytest.raises(BudgetExceededError):
            budget.tick()

    def test_exception_carries_partial_and_no_checkpoint(self):
        budget = Budget(max_units=1, check_interval=1)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.tick(partial={"best": 0.25})
        assert exc_info.value.partial == {"best": 0.25}
        # resume state lives in the shard cache, not on the exception
        assert not hasattr(exc_info.value, "checkpoint_path")

    def test_units_done_and_remaining(self):
        budget = Budget(max_units=10, check_interval=1)
        budget.tick()
        budget.tick()
        assert budget.units_done == 2
        assert budget.remaining_units() == 8

    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(10_000):
            budget.tick()
        assert budget.remaining_units() is None


class TestWallClock:
    def test_deadline_trips(self):
        budget = Budget(wall_seconds=0.01, check_interval=1)
        deadline = time.perf_counter() + 5.0
        with pytest.raises(BudgetExceededError):
            while time.perf_counter() < deadline:
                budget.tick()

    def test_remaining_seconds_decreases(self):
        budget = Budget(wall_seconds=100.0)
        first = budget.remaining_seconds()
        time.sleep(0.01)
        assert budget.remaining_seconds() < first

    def test_restart_resets_the_clock(self):
        budget = Budget(wall_seconds=50.0, max_units=5, check_interval=1)
        for _ in range(4):
            budget.tick()
        budget.restart()
        assert budget.units_done == 0
        for _ in range(4):
            budget.tick()  # would raise without the restart

    def test_check_interval_amortizes_but_still_trips(self):
        budget = Budget(wall_seconds=0.01, check_interval=256)
        time.sleep(0.02)
        with pytest.raises(BudgetExceededError):
            for _ in range(512):
                budget.tick()
