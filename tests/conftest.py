"""Fixtures shared across test packages."""

import concurrent.futures

import pytest


@pytest.fixture
def pools_started(monkeypatch):
    """The ``max_workers`` of every process pool started during the test."""
    sizes = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return sizes


@pytest.fixture
def pool_at_once(monkeypatch, pools_started):
    """Fork the pool at a map's first payload, so tiny maps still use one.

    Sets :data:`repro.parallel.executor.POOL_AFTER_SECONDS` to 0 and
    returns :func:`pools_started`'s list, so a test can assert that a
    pool really ran.
    """
    from repro.parallel import executor

    monkeypatch.setattr(executor, "POOL_AFTER_SECONDS", 0)
    return pools_started
