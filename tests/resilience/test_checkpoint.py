"""Resume through the shard cache.

``--checkpoint DIR`` / ``--resume DIR`` are the result cache: every
completed shard is stored the moment it finishes, and re-running a
budget-stopped or interrupted search with the same cache computes only
the shards it lacks. These tests pin the storage contract (entries round
trip, corruption and mismatches are misses) and the resume contract
(stopped + re-run == uninterrupted, enumerating only the remainder).
"""

import os
import random

import pytest

from repro.cache import ResultCache, ShardCache
from repro.errors import BudgetExceededError
from repro.information.sampling import (
    SAMPLING_SHARD_UNITS,
    estimate_protocol_information,
)
from repro.lowerbounds.exhaustive import (
    EXHAUSTIVE_SHARD_UNITS,
    universal_bound_id_oblivious,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ShardPlan
from repro.partitions.linalg import rank_bareiss, rank_exact
from repro.resilience import Budget
from repro.twoparty import TrivialPartitionCompProtocol

ALPHABET = ("", "0", "1")


def _exhaustive_cache(root, n=6):
    return ShardCache(
        ResultCache(str(root)), "exhaustive", {"n": n, "alphabet": list(ALPHABET)}
    )


def _sampling_cache(root, n, samples, seed):
    return ShardCache(
        ResultCache(str(root)),
        "sampling",
        {"n": n, "samples": samples, "seed": seed, "eps": 0.0},
    )


def _entry_paths(root):
    return sorted(
        os.path.join(directory, name)
        for directory, _subdirs, names in os.walk(root)
        for name in names
    )


def _exhaustive_shards(n):
    return ShardPlan.for_units(len(ALPHABET) ** n, EXHAUSTIVE_SHARD_UNITS).shards()


class TestAtomicWriteRead:
    def test_roundtrip(self, tmp_path):
        cache = _exhaustive_cache(tmp_path)
        cache.put_item({"start": 0, "stop": 3}, {"best": [0.5, 1], "next_index": 3})
        assert cache.get_item({"start": 0, "stop": 3}) == {
            "best": [0.5, 1],
            "next_index": 3,
        }

    def test_no_temp_files_left_behind(self, tmp_path):
        universal_bound_id_oblivious(6, shard_cache=_exhaustive_cache(tmp_path))
        paths = _entry_paths(tmp_path)
        assert len(paths) == len(_exhaustive_shards(6))
        assert all(path.endswith(".json") for path in paths)

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        cache = _exhaustive_cache(tmp_path)
        cache.put_item({"start": 0, "stop": 3}, {"index": 1})
        cache.put_item({"start": 0, "stop": 3}, {"index": 2})
        assert cache.get_item({"start": 0, "stop": 3}) == {"index": 2}
        assert len(_entry_paths(tmp_path)) == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert _exhaustive_cache(tmp_path).get_item({"start": 0, "stop": 3}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = _exhaustive_cache(tmp_path)
        cache.put_item({"start": 0, "stop": 3}, {"index": 1})
        (path,) = _entry_paths(tmp_path)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(10)  # a torn tail
        assert cache.get_item({"start": 0, "stop": 3}) is None

    def test_kind_mismatch_misses(self, tmp_path):
        store = ResultCache(str(tmp_path))
        ShardCache(store, "exhaustive", {"n": 6}).put_item({"start": 0}, {"x": 1})
        assert ShardCache(store, "sampling", {"n": 6}).get_item({"start": 0}) is None

    def test_params_mismatch_misses(self, tmp_path):
        _exhaustive_cache(tmp_path, n=6).put_item({"start": 0, "stop": 3}, {"x": 1})
        assert _exhaustive_cache(tmp_path, n=7).get_item({"start": 0, "stop": 3}) is None


class TestCheckpointer:
    def test_cadence_by_units(self, tmp_path):
        # One entry per completed shard: a budget that runs out inside
        # the fourth shard stores the three shards it finished.
        shards = _exhaustive_shards(7)
        budget = Budget(max_units=shards[3].start + 5, check_interval=1)
        with pytest.raises(BudgetExceededError):
            universal_bound_id_oblivious(
                7, budget=budget, shard_cache=_exhaustive_cache(tmp_path, n=7)
            )
        assert len(_entry_paths(tmp_path)) == 3

    def test_flush_always_writes(self, tmp_path):
        # An interrupt keeps every shard that completed before it landed.
        # The protocol runs once per distinct input, so n = 7 (B_7 = 877)
        # puts the interrupting run inside the second shard: the first
        # shard's 512 draws hold fewer than 522 distinct inputs, the
        # first two shards' 1024 draws more.
        class Interrupting(TrivialPartitionCompProtocol):
            calls = 0

            def run(self, pa, pb):
                Interrupting.calls += 1
                if Interrupting.calls > SAMPLING_SHARD_UNITS + 10:
                    raise KeyboardInterrupt
                return super().run(pa, pb)

        samples = 3 * SAMPLING_SHARD_UNITS
        cache = _sampling_cache(tmp_path, 7, samples, 5)
        with pytest.raises(KeyboardInterrupt):
            estimate_protocol_information(
                Interrupting(7), 7, samples, random.Random(5), shard_cache=cache
            )
        assert len(_entry_paths(tmp_path)) == 1
        uninterrupted = estimate_protocol_information(
            TrivialPartitionCompProtocol(7), 7, samples, random.Random(5)
        )
        resumed = estimate_protocol_information(
            TrivialPartitionCompProtocol(7),
            7,
            samples,
            random.Random(5),
            shard_cache=cache,
        )
        assert resumed == uninterrupted
        assert cache.cache.hits == 1


class TestExhaustiveResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        n, total = 7, 3**7
        plain = universal_bound_id_oblivious(n)
        cache = _exhaustive_cache(tmp_path, n=n)
        shards = _exhaustive_shards(n)
        with pytest.raises(BudgetExceededError) as exc_info:
            universal_bound_id_oblivious(
                n,
                budget=Budget(max_units=shards[2].start + 7, check_interval=1),
                shard_cache=cache,
            )
        assert exc_info.value.partial is not None
        registry = MetricsRegistry()
        resumed = universal_bound_id_oblivious(n, metrics=registry, shard_cache=cache)
        assert resumed == plain
        # the two completed shards are hits; only the remainder enumerates
        assert registry.counter("exhaustive.shards_cached").value == 2
        enumerated = registry.counter("exhaustive.assignments_enumerated").value
        assert enumerated + shards[2].start == total

    def test_malformed_shard_entry_is_recomputed(self, tmp_path):
        # An entry that passes its digest but does not cover its shard is
        # never folded in; the shard computes afresh.
        cache = _exhaustive_cache(tmp_path)
        first = _exhaustive_shards(6)[0]
        cache.put_item(
            {"start": first.start, "stop": first.stop, "seed": first.seed},
            {"nonsense": 1},
        )
        assert universal_bound_id_oblivious(6, shard_cache=cache) == (
            universal_bound_id_oblivious(6)
        )

    def test_param_mismatch_recomputes(self, tmp_path):
        with pytest.raises(BudgetExceededError):
            universal_bound_id_oblivious(
                6,
                budget=Budget(max_units=500, check_interval=1),
                shard_cache=_exhaustive_cache(tmp_path, n=6),
            )
        cache = _exhaustive_cache(tmp_path, n=7)
        assert universal_bound_id_oblivious(7, shard_cache=cache) == (
            universal_bound_id_oblivious(7)
        )
        assert cache.cache.hits == 0


class TestSamplingResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        protocol = TrivialPartitionCompProtocol(5)
        samples = 3 * SAMPLING_SHARD_UNITS
        uninterrupted = estimate_protocol_information(
            protocol, 5, samples, random.Random(7)
        )
        cache = _sampling_cache(tmp_path, 5, samples, 7)
        with pytest.raises(BudgetExceededError) as exc_info:
            estimate_protocol_information(
                protocol,
                5,
                samples,
                random.Random(7),
                budget=Budget(max_units=SAMPLING_SHARD_UNITS + 60, check_interval=1),
                shard_cache=cache,
            )
        assert exc_info.value.partial.samples == SAMPLING_SHARD_UNITS + 60
        resumed = estimate_protocol_information(
            protocol, 5, samples, random.Random(7), shard_cache=cache
        )
        assert resumed == uninterrupted
        assert cache.cache.hits == 1

    def test_resilient_path_matches_lean_numbers(self):
        protocol = TrivialPartitionCompProtocol(5)
        lean = estimate_protocol_information(protocol, 5, 1200, random.Random(3))
        resilient = estimate_protocol_information(
            protocol, 5, 1200, random.Random(3), budget=Budget(max_units=10**9)
        )
        assert resilient == lean
        assert resilient.population == lean.population


class TestRankBudget:
    def test_budget_does_not_change_the_answer(self):
        matrix = [[(i * j + i + j) % 2 for j in range(12)] for i in range(12)]
        assert rank_exact(matrix, budget=Budget(max_units=10**6)) == rank_exact(matrix)

    def test_budget_trips_inside_elimination(self):
        matrix = [[(i + j) % 5 for j in range(30)] for i in range(30)]
        with pytest.raises(BudgetExceededError):
            rank_bareiss(matrix, budget=Budget(max_units=2, check_interval=1))
