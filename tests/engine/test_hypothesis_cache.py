"""Property: cached ≡ recomputed, byte for byte, across workers × kernels.

The ISSUE's acceptance bar for the result cache is *byte* identity, not
structural similarity: whatever (workers, kernel, spec) tuple produced an
entry, a warm read must canonical-JSON-serialize to exactly the bytes a
cold recompute would produce. Hypothesis drives the tuple; every example
gets a fresh cache directory so examples never warm each other.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.cache.keys import canonical_json
from repro.engine import EngineRequest, execute

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@settings(max_examples=6, **COMMON)
@given(
    workers=st.sampled_from([1, 2]),
    kernel=st.sampled_from(["reference", "auto"]),
    max_n=st.integers(min_value=2, max_value=4),
)
def test_ranks_cached_equals_recomputed(workers, kernel, max_n):
    params = {"m_ns": list(range(1, max_n + 1)), "e_ns": [2, 4]}
    request = EngineRequest("ranks", params, kernel=kernel, workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = execute(request, cache=cache)
        warm = execute(request, cache=cache)
        bare = execute(request)
    assert not cold.cached and warm.cached
    assert canonical_json(warm.payload) == canonical_json(cold.payload)
    assert canonical_json(bare.payload) == canonical_json(cold.payload)


@settings(max_examples=4, **COMMON)
@given(
    cold_workers=st.sampled_from([1, 2]),
    warm_workers=st.sampled_from([1, 2]),
    n=st.integers(min_value=3, max_value=4),
)
def test_exhaustive_cache_is_workers_invariant(cold_workers, warm_workers, n):
    """Any worker count warms the entry; any other worker count hits it."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = execute(
            EngineRequest("exhaustive", {"n": n}, workers=cold_workers), cache=cache
        )
        warm = execute(
            EngineRequest("exhaustive", {"n": n}, workers=warm_workers), cache=cache
        )
    assert warm.cached and warm.key == cold.key
    assert canonical_json(warm.payload) == canonical_json(cold.payload)


@settings(max_examples=4, **COMMON)
@given(
    workers=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=3),
    trials=st.integers(min_value=1, max_value=2),
)
def test_fault_sweep_cached_equals_recomputed(workers, seed, trials):
    params = {
        "algorithms": ["flooding"],
        "kinds": ["bit_flip", "erasure"],
        "rates": [0.0, 0.1],
        "n": 6,
        "trials": trials,
        "seed": seed,
    }
    request = EngineRequest("fault-sweep", params, workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold = execute(request, cache=cache)
        warm = execute(request, cache=cache)
        bare = execute(request)
    assert warm.cached
    assert canonical_json(warm.payload) == canonical_json(cold.payload)
    assert canonical_json(bare.payload) == canonical_json(cold.payload)
