"""The engine seam: dispatch parity with the legacy layers, cache semantics."""

import json

import pytest

from repro.cache import ResultCache
from repro.cache.keys import canonical_json
from repro.engine import (
    CACHEABLE_KINDS,
    ENGINE_KINDS,
    EngineOptions,
    EngineRequest,
    execute,
    normalize_params,
)
from repro.errors import EngineError


class TestDispatchParity:
    """execute() returns exactly what the legacy call paths computed."""

    def test_exhaustive_matches_direct_call(self):
        from repro.lowerbounds import universal_bound_id_oblivious

        result = execute(EngineRequest("exhaustive", {"n": 4}))
        report = universal_bound_id_oblivious(4)
        assert result.payload == {
            "n": 4,
            "class_size": report.class_size,
            "minimum_forced_error": report.minimum_forced_error,
            "worst_assignment": list(report.worst_assignment),
            "is_constant": report.is_constant,
        }
        assert not result.cached and result.key is None

    def test_ranks_grid_matches_direct_ranks(self):
        from repro.partitions import bell_number, perfect_matching_count
        from repro.partitions.matrices import e_matrix_rank, m_matrix_rank

        result = execute(EngineRequest("ranks", {"m_ns": [1, 2, 3], "e_ns": [2, 4]}))
        assert result.payload["m_rows"] == [
            {"n": n, "rank": m_matrix_rank(n), "predicted": bell_number(n)}
            for n in (1, 2, 3)
        ]
        assert result.payload["e_rows"] == [
            {"n": n, "rank": e_matrix_rank(n), "predicted": perfect_matching_count(n)}
            for n in (2, 4)
        ]

    def test_fault_sweep_matches_direct_call_with_zeroed_clock(self):
        from repro.resilience import fault_sweep

        params = {
            "algorithms": ["flooding"],
            "kinds": ["bit_flip"],
            "rates": [0.0, 0.1],
            "n": 6,
            "trials": 2,
            "seed": 0,
        }
        result = execute(EngineRequest("fault-sweep", params))
        direct = fault_sweep(
            algorithms=("flooding",), kinds=("bit_flip",), rates=(0.0, 0.1),
            n=6, trials=2, seed=0,
        ).as_payload()
        direct["created_unix"] = 0.0
        direct["wall_time_seconds"] = 0.0
        assert result.payload == json.loads(canonical_json(direct))

    def test_run_kind_produces_the_session_payload_shape(self):
        result = execute(
            EngineRequest("run", {"algorithm": "flooding", "n": 6})
        )
        assert result.payload["decision"] == "YES"
        assert result.payload["all_finished"] is True
        assert result.payload["faults_injected"] == 0

    def test_payload_is_json_shaped_even_without_a_cache(self):
        # tuples -> lists structurally, so cold and warm objects compare ==
        result = execute(EngineRequest("exhaustive", {"n": 4}))
        assert result.payload == json.loads(canonical_json(result.payload))


class TestValidation:
    def test_unknown_kind_is_an_engine_error(self):
        with pytest.raises(EngineError):
            execute(EngineRequest("nope", {}))

    def test_bad_params_are_engine_errors(self):
        with pytest.raises(EngineError):
            normalize_params("ranks", {"ns": []})
        with pytest.raises(EngineError):
            normalize_params("ranks", {"m_ns": [], "e_ns": []})
        with pytest.raises(EngineError):
            normalize_params("ranks", {"e_ns": [3]})  # odd E_n size
        with pytest.raises(EngineError):
            normalize_params("exhaustive", {})  # n is required

    def test_kind_lists_are_coherent(self):
        assert set(CACHEABLE_KINDS) == set(ENGINE_KINDS) - {"bench"}


class TestWholeRequestCache:
    def test_warm_hit_is_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("exhaustive", {"n": 4})
        cold = execute(request, cache=cache)
        warm = execute(request, cache=cache)
        assert not cold.cached and warm.cached
        assert warm.key == cold.key
        assert canonical_json(warm.payload) == canonical_json(cold.payload)
        assert cache.hits == 1 and cache.stored >= 1

    def test_cache_off_equals_cache_on_payloads(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("ranks", {"m_ns": [1, 2], "e_ns": [2]})
        with_cache = execute(request, cache=cache)
        without = execute(request)
        assert without.payload == with_cache.payload
        assert without.key is None  # no key derivation on the legacy path

    def test_workers_do_not_split_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cold = execute(EngineRequest("exhaustive", {"n": 4}, workers=1), cache=cache)
        warm = execute(EngineRequest("exhaustive", {"n": 4}, workers=2), cache=cache)
        assert warm.cached and warm.key == cold.key
        assert warm.payload == cold.payload

    def test_kernel_does_split_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        params = {"m_ns": [1, 2], "e_ns": [2]}
        ref = execute(EngineRequest("ranks", params, kernel="reference"), cache=cache)
        fast = execute(EngineRequest("ranks", params, kernel="auto"), cache=cache)
        assert ref.key != fast.key
        assert not fast.cached  # distinct entry, so the first fast run misses
        assert fast.payload == ref.payload  # ... but the results agree

    def test_disabled_cache_never_derives_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), enabled=False)
        result = execute(EngineRequest("exhaustive", {"n": 4}), cache=cache)
        assert result.key is None and not result.cached
        assert cache.counters() == {
            "hits": 0, "misses": 0, "stored": 0, "bytes_saved": 0, "corrupt": 0,
        }

    def test_corrupt_entry_recomputes_and_never_serves(self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("exhaustive", {"n": 4})
        cold = execute(request, cache=cache)
        path = os.path.join(
            cache.objects_dir, cold.key[:2], cold.key + ".json"
        )
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["payload"]["class_size"] = 999  # a lie the digest catches
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        warm = execute(request, cache=cache)
        assert not warm.cached  # recomputed, the lie was never served
        assert warm.payload == cold.payload
        assert cache.corrupt == 1
        # the recompute overwrote the bad entry; the next run hits cleanly
        assert execute(request, cache=cache).cached

    def test_session_recording_bypasses_the_cache(self, tmp_path):
        from repro.replay import SessionStore

        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("exhaustive", {"n": 4})
        execute(request, cache=cache)  # warm the entry
        store = SessionStore(str(tmp_path / "s.jsonl"))
        store.start("exhaustive", {"n": 4})
        recorded = execute(
            request, cache=cache, options=EngineOptions(session=store)
        )
        store.finish(complete=True)
        assert not recorded.cached  # a session documents a real execution
        assert recorded.key is None


class TestShardGranularity:
    def test_shards_survive_whole_request_eviction(self, tmp_path):
        """Delete the request entry; the shard entries rebuild it compute-free."""
        import os

        from repro.obs.metrics import MetricsRegistry, use_registry

        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("exhaustive", {"n": 4}, workers=2)
        cold = execute(request, cache=cache)
        os.unlink(os.path.join(cache.objects_dir, cold.key[:2], cold.key + ".json"))
        registry = MetricsRegistry()
        with use_registry(registry):
            rebuilt = execute(request, cache=cache)
        counters = registry.snapshot()["counters"]
        assert not rebuilt.cached  # the request entry was gone...
        assert rebuilt.payload == cold.payload  # ...but the result is identical
        assert counters["exhaustive.shards_cached"] > 0
        assert counters.get("exhaustive.assignments_enumerated", 0) == 0

    def test_shard_hits_work_without_a_metrics_registry(self, tmp_path):
        """The CLI runs with no registry installed; shard hits must not
        assume one (regression: exhaustive.shards_cached ticked through
        a None registry)."""
        import os

        cache = ResultCache(str(tmp_path / "c"))
        request = EngineRequest("exhaustive", {"n": 4}, workers=2)
        cold = execute(request, cache=cache)
        os.unlink(os.path.join(cache.objects_dir, cold.key[:2], cold.key + ".json"))
        rebuilt = execute(request, cache=cache)  # no use_registry() here
        assert rebuilt.payload == cold.payload

    def test_overlapping_sweep_grids_share_cells(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, use_registry

        cache = ResultCache(str(tmp_path / "c"))
        base = {
            "algorithms": ["flooding"], "kinds": ["bit_flip"],
            "rates": [0.0, 0.1], "n": 6, "trials": 2, "seed": 0,
        }
        execute(EngineRequest("fault-sweep", base), cache=cache)
        wider = dict(base, rates=[0.0, 0.1, 0.2])  # tail-extends the grid
        registry = MetricsRegistry()
        with use_registry(registry):
            result = execute(EngineRequest("fault-sweep", wider), cache=cache)
        counters = registry.snapshot()["counters"]
        assert not result.cached  # different request key...
        assert counters["resilience.cells_cached"] == 2  # ...shared cells
        assert counters["resilience.trials_run"] == 2  # only the new rate ran
