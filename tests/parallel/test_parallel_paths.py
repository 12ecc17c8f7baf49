"""Serial ≡ parallel for every ``--workers`` hot path, bit for bit.

The contract under test is the whole point of :mod:`repro.parallel`:
every workload runs one shard plan whose shards do not depend on the
worker count, ``workers=1`` maps it in-process and ``workers > 1`` over
a pool once the in-process part has run for
:data:`~repro.parallel.executor.POOL_AFTER_SECONDS`, and every execution
returns the *identical* report -- same floats, same tie-breaks, same RNG
stream consumption, same budget accounting -- so parallelism can never
change a paper-facing number. The sizes here are far below that
threshold, so the pooled tests take the ``pool_at_once`` fixture (the
threshold at 0, and a record of each pool started) and assert that a
pool really ran.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache, ShardCache
from repro.engine.core import run_record
from repro.errors import BudgetExceededError
from repro.information import estimate_protocol_information
from repro.lowerbounds import universal_bound_id_oblivious
from repro.lowerbounds.exhaustive import (
    EXHAUSTIVE_SHARD_UNITS,
    _exhaustive_shard_worker,
    clear_pair_cache,
    covers_and_pairs_for,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import executor
from repro.partitions import build_m_matrix, rank_mod_p, rank_multi_prime
from repro.resilience import Budget, fault_sweep
from repro.twoparty import TrivialPartitionCompProtocol

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# exhaustive universal-bound search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_exhaustive_identical_across_worker_counts(workers, pool_at_once):
    # n = 6: 729 assignments in 3 shards (n = 4 is one shard, no pool)
    serial = universal_bound_id_oblivious(6, alphabet=("", "0", "1"))
    report = universal_bound_id_oblivious(
        6, alphabet=("", "0", "1"), workers=workers
    )
    assert report == serial
    assert pool_at_once == ([min(workers, 3)] if workers > 1 else [])


def test_exhaustive_workers_one_is_the_golden_serial_path():
    # workers=1 must be the byte-identical original loop: same report
    # object contents as the no-argument call.
    assert universal_bound_id_oblivious(4, workers=1) == universal_bound_id_oblivious(4)


@given(workers=st.sampled_from(WORKER_COUNTS), n=st.integers(3, 4))
@settings(max_examples=8, deadline=None)
def test_exhaustive_serial_parallel_property(workers, n):
    serial = universal_bound_id_oblivious(n, alphabet=("0", "1"))
    assert (
        universal_bound_id_oblivious(n, alphabet=("0", "1"), workers=workers)
        == serial
    )


def _exhaustive_cache(tmp_path, n, alphabet):
    return ShardCache(
        ResultCache(str(tmp_path)), "exhaustive", {"n": n, "alphabet": list(alphabet)}
    )


def test_exhaustive_budget_raise_parity_and_resume(tmp_path, pool_at_once):
    """Mid-fan-out budget exhaustion resumes from the shard cache exactly."""
    n, alphabet = 6, ("", "0", "1")
    total = len(alphabet) ** n
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)

    partials = []
    for workers in WORKER_COUNTS:
        with pytest.raises(BudgetExceededError) as excinfo:
            universal_bound_id_oblivious(
                n,
                alphabet=alphabet,
                workers=workers,
                budget=Budget(max_units=total // 2),
            )
        partials.append(excinfo.value.partial)
    # the first K assignments, whatever the worker count
    assert partials[0] == partials[1] == partials[2]
    cache = _exhaustive_cache(tmp_path, n, alphabet)
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            budget=Budget(max_units=total // 2),
            shard_cache=cache,
        )
    # resume under a different worker count: only the missing shards run
    registry = MetricsRegistry()
    resumed = universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=4, metrics=registry,
        shard_cache=cache,
    )
    assert resumed == serial
    assert registry.counter("exhaustive.shards_cached").value >= 1
    assert registry.counter("exhaustive.assignments_enumerated").value < total
    assert pool_at_once == [2, 3, 2, 2]
    # budget == total work raises at every worker count (tick-after
    # semantics), and budget == total + 1 completes at every one.
    for workers in WORKER_COUNTS:
        with pytest.raises(BudgetExceededError) as excinfo:
            universal_bound_id_oblivious(
                n,
                alphabet=alphabet,
                workers=workers,
                budget=Budget(max_units=total),
            )
        assert excinfo.value.partial == serial
        assert (
            universal_bound_id_oblivious(
                n,
                alphabet=alphabet,
                workers=workers,
                budget=Budget(max_units=total + 1),
            )
            == serial
        )


def test_exhaustive_resume_crosses_kernels(tmp_path, pool_at_once):
    """Shards cached by a pooled scan serve an in-process re-run."""
    n, alphabet = 6, ("", "0", "1")
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)
    cache = _exhaustive_cache(tmp_path, n, alphabet)
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=2,
            budget=Budget(max_units=EXHAUSTIVE_SHARD_UNITS + 5),
            shard_cache=cache,
        )
    hits_before = cache.cache.hits
    resumed = universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=1, shard_cache=cache
    )
    assert resumed == serial
    assert cache.cache.hits - hits_before == 1
    assert pool_at_once == [2]


@pytest.mark.parametrize("workers", (1, 2))
def test_wall_budget_is_one_deadline_across_shards(workers):
    """Shards share the parent's deadline instead of restarting it."""
    # Each class is scored once per process, so the class count sets the
    # search time: 2,795 classes of 65,536 assignments outlast the budget.
    n, alphabet = 8, ("", "0", "1", "2")
    clear_pair_cache()
    covers_and_pairs_for(n)  # warm: the precompute is not scanning
    start = time.perf_counter()
    _exhaustive_shard_worker((n, alphabet, 0, EXHAUSTIVE_SHARD_UNITS, None, False))
    shard_seconds = time.perf_counter() - start
    clear_pair_cache()  # the search scores every class cold
    covers_and_pairs_for(n)
    seconds = 0.3
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        universal_bound_id_oblivious(
            n,
            alphabet=alphabet,
            workers=workers,
            budget=Budget(wall_seconds=seconds),
        )
    elapsed = time.perf_counter() - start
    # budget + one shard, plus headroom for starting the pool
    assert elapsed < seconds + shard_seconds + 0.5


@pytest.mark.parametrize("threshold", ("default", 0))
@pytest.mark.parametrize("workers", (1, 2))
def test_budget_boundaries_do_not_depend_on_the_pool(workers, threshold, monkeypatch, pools_started):
    """The same raise/complete edges in-process (the default threshold at
    these sizes) and pooled (threshold 0)."""
    if threshold != "default":
        monkeypatch.setattr(executor, "POOL_AFTER_SECONDS", threshold)
    n, alphabet = 6, ("", "0", "1")
    serial = universal_bound_id_oblivious(n, alphabet=alphabet)
    with pytest.raises(BudgetExceededError) as excinfo:
        universal_bound_id_oblivious(
            n, alphabet=alphabet, workers=workers, budget=Budget(max_units=729)
        )
    assert excinfo.value.partial == serial
    assert universal_bound_id_oblivious(
        n, alphabet=alphabet, workers=workers, budget=Budget(max_units=730)
    ) == serial
    golden, _ = _sampling_report(None, samples=2000)
    with pytest.raises(BudgetExceededError) as excinfo:
        _sampling_report(workers, samples=2000, budget=Budget(max_units=2000))
    assert excinfo.value.partial == golden
    assert _sampling_report(workers, samples=2000, budget=Budget(max_units=2001))[0] == golden
    if threshold == 0 and workers > 1:
        assert pools_started == [2, 2, 2, 2]
    # A deadline shorter than the default threshold expires while the
    # shards still run in-process (in the pool at threshold 0); the
    # search stops there all the same.
    n, alphabet = 8, ("", "0", "1", "2")
    clear_pair_cache()  # cold: 2,795 classes outlast the deadline
    covers_and_pairs_for(n)
    seconds = 0.05
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as excinfo:
        universal_bound_id_oblivious(
            n, alphabet=alphabet, workers=workers, budget=Budget(wall_seconds=seconds)
        )
    assert time.perf_counter() - start < seconds + 1.0
    assert excinfo.value.partial.class_size == len(alphabet) ** n


# ----------------------------------------------------------------------
# sampled information estimator
# ----------------------------------------------------------------------
def _sampling_report(workers, samples=60, seed=11, n=4, **kwargs):
    rng = random.Random(seed)
    if workers is not None:
        kwargs["workers"] = workers
    report = estimate_protocol_information(
        TrivialPartitionCompProtocol(n), n, samples, rng, **kwargs
    )
    return report, rng.getstate()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sampling_identical_across_worker_counts(workers, pool_at_once):
    # Exact equality, floats included, against the default call; enough
    # samples for several shards so the merge order is exercised.
    golden, golden_rng = _sampling_report(None, samples=1500)
    report, rng_state = _sampling_report(workers, samples=1500)
    assert report == golden
    assert report.information_estimate == golden.information_estimate
    assert report.population == golden.population
    # the parent rng consumed the identical stream (pre-drawn inputs)
    assert rng_state == golden_rng
    assert pool_at_once == ([min(workers, 3)] if workers > 1 else [])


def _sampling_cache(tmp_path, seed):
    return ShardCache(
        ResultCache(str(tmp_path)),
        "sampling",
        {"n": 4, "samples": 1500, "seed": seed, "eps": 0.0},
    )


def test_sampling_budget_resume_mid_fan_out(tmp_path, pool_at_once):
    serial, _ = _sampling_report(1, samples=1500)
    cache = _sampling_cache(tmp_path, 11)
    with pytest.raises(BudgetExceededError) as excinfo:
        _sampling_report(
            2, samples=1500, budget=Budget(max_units=1100), shard_cache=cache
        )
    assert excinfo.value.partial.samples == 1100
    hits_before = cache.cache.hits
    resumed, _ = _sampling_report(4, samples=1500, shard_cache=cache)
    assert resumed == serial
    assert cache.cache.hits - hits_before == 2
    assert pool_at_once == [2]  # the resume has one shard left to run


def test_sampling_resume_rejects_mismatched_seed(tmp_path, pool_at_once):
    from repro.engine import EngineOptions, EngineRequest, execute

    cache = ResultCache(str(tmp_path))
    params = {"n": 4, "samples": 1500, "seed": 11}
    with pytest.raises(BudgetExceededError):
        execute(
            EngineRequest("sampling", params, workers=2),
            cache=cache,
            options=EngineOptions(budget=Budget(max_units=1100)),
        )
    # a different seed draws different inputs: no stored shard is served
    hits_before = cache.hits
    other = execute(
        EngineRequest("sampling", dict(params, seed=999), workers=2), cache=cache
    )
    assert cache.hits == hits_before
    assert other.payload == execute(
        EngineRequest("sampling", dict(params, seed=999))
    ).payload
    assert pool_at_once == [2, 2]


# ----------------------------------------------------------------------
# ranks: serial eliminations, whatever a session's worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_rank_identical_across_worker_counts(workers):
    # `record ranks --workers N` keeps N in the session header, but the
    # ranks run serially, so every N records the same rows.
    params = {"ns": [3, 4], "kernel": "auto"}
    serial = run_record("ranks", dict(params, workers=1))
    assert run_record("ranks", dict(params, workers=workers)) == serial
    assert [row["m_rank"] for row in serial["rows"]] == [5, 15]


@pytest.mark.parametrize("prime_count", (1, 2, 4))
def test_rank_budget_accounting_matches_serial(prime_count):
    # The primes are eliminated one after another, each ticking once
    # before every pivot column: a budget of exactly the summed ticks
    # raises, one more unit completes.
    _parts, matrix = build_m_matrix(4)
    primes = (1_000_003, 999_983, 2_147_483_647, 998_244_353)[:prime_count]
    total_ticks = len(primes) * len(matrix[0])
    budget = Budget(max_units=total_ticks + 1)
    assert rank_multi_prime(matrix, primes, budget=budget) == max(
        rank_mod_p(matrix, p) for p in primes
    )
    assert budget.units_done == total_ticks
    with pytest.raises(BudgetExceededError):
        rank_multi_prime(matrix, primes, budget=Budget(max_units=total_ticks))


# ----------------------------------------------------------------------
# fault sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fault_sweep_identical_across_worker_counts(workers, pool_at_once):
    kwargs = dict(
        algorithms=("neighbor_exchange",),
        kinds=("bit_flip", "erasure"),
        rates=(0.0, 0.2),
        n=6,
        trials=2,
        seed=3,
    )
    serial = fault_sweep(**kwargs)
    parallel = fault_sweep(workers=workers, **kwargs)
    # wall_time_seconds is the only legitimately nondeterministic field
    assert parallel.curves == serial.curves
    assert (parallel.n, parallel.trials, parallel.seed) == (
        serial.n,
        serial.trials,
        serial.seed,
    )
    assert pool_at_once == ([workers] if workers > 1 else [])


def test_fault_sweep_metrics_match_serial(pool_at_once):
    from repro.obs.metrics import MetricsRegistry

    kwargs = dict(
        algorithms=("neighbor_exchange",),
        kinds=("crash",),
        rates=(0.0, 0.3),
        n=6,
        trials=2,
        seed=5,
    )
    serial_registry = MetricsRegistry()
    fault_sweep(metrics=serial_registry, **kwargs)
    parallel_registry = MetricsRegistry()
    fault_sweep(metrics=parallel_registry, workers=4, **kwargs)
    for name in ("resilience.trials_run", "resilience.faults_injected"):
        assert (
            parallel_registry.counter(name).value
            == serial_registry.counter(name).value
        )
    assert pool_at_once == [2]
