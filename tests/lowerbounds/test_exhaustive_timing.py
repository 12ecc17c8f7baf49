"""Regression tests: the search timer and the memoized pair tables.

The timer bug this pins down: the serial search loop used to take its
``start = time.perf_counter()`` timestamp conditionally, so the
``exhaustive.search_seconds`` histogram (and the ``instances_per_sec``
gauge derived from the same ``elapsed``) could silently record garbage
depending on which optional features (metrics / budget / checkpoints)
happened to be enabled. The timestamp is now unconditional; these tests
assert a sane elapsed on every path combination.
"""

import pytest

from repro.lowerbounds import (
    clear_pair_cache,
    covers_and_pairs_for,
    universal_bound_id_oblivious,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import Budget

#: Any honest wall time for an n=4 search; a garbage perf_counter delta
#: (e.g. measured from 0.0) would be in the thousands of seconds.
SANE_SECONDS = 60.0


def _search_seconds(registry: MetricsRegistry) -> float:
    hist = registry.histogram("exhaustive.search_seconds")
    assert hist.count == 1
    return hist.sum


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # metrics-only path
        {"budget": Budget(max_units=10_000)},  # resilient path
        {"workers": 2, "vectorize": False},  # sharded path
    ],
    ids=["metrics_only", "resilient", "sharded"],
)
def test_search_seconds_is_sane_on_every_path(kwargs):
    registry = MetricsRegistry()
    universal_bound_id_oblivious(4, alphabet=("0", "1"), metrics=registry, **kwargs)
    elapsed = _search_seconds(registry)
    assert 0.0 < elapsed < SANE_SECONDS
    rate = registry.gauge("exhaustive.instances_per_sec").value
    assert 0.0 < rate < float("inf")
    # throughput and elapsed must describe the same run
    enumerated = registry.counter("exhaustive.assignments_enumerated").value
    assert rate == pytest.approx(enumerated / elapsed)


# ----------------------------------------------------------------------
# memoized pair precompute
# ----------------------------------------------------------------------
def test_pair_tables_are_memoized_with_hit_counter():
    clear_pair_cache()
    registry = MetricsRegistry()
    first = covers_and_pairs_for(5, registry)
    assert registry.counter("exhaustive.pair_cache_hits").value == 0
    second = covers_and_pairs_for(5, registry)
    assert second is first  # the cached object, not a recomputation
    assert registry.counter("exhaustive.pair_cache_hits").value == 1
    covers_and_pairs_for(5, registry)
    assert registry.counter("exhaustive.pair_cache_hits").value == 2
    # a different n is a miss, not a hit
    covers_and_pairs_for(4, registry)
    assert registry.counter("exhaustive.pair_cache_hits").value == 2
    clear_pair_cache()


def test_repeat_searches_hit_the_pair_cache():
    clear_pair_cache()
    registry = MetricsRegistry()
    universal_bound_id_oblivious(4, alphabet=("0", "1"), metrics=registry)
    universal_bound_id_oblivious(4, alphabet=("", "0", "1"), metrics=registry)
    # second search reuses the n=4 table: one hit, zero recomputes
    assert registry.counter("exhaustive.pair_cache_hits").value == 1
    clear_pair_cache()


def test_clear_pair_cache_forces_recompute():
    clear_pair_cache()
    registry = MetricsRegistry()
    covers_and_pairs_for(4, registry)
    clear_pair_cache()
    covers_and_pairs_for(4, registry)
    assert registry.counter("exhaustive.pair_cache_hits").value == 0
    clear_pair_cache()
