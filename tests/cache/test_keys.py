"""Key derivation: canonical JSON, fingerprints, request/item addresses."""

import ast
import hashlib
import os

import pytest

from repro.cache.keys import (
    FINGERPRINT_PREFIXES,
    canonical_json,
    code_fingerprint,
    fingerprint_modules,
    item_key,
    kind_fingerprint,
    payload_digest,
    request_key,
    shard_key,
)
from repro.engine import ENGINE_KINDS


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_no_whitespace_and_ascii(self):
        text = canonical_json({"k": "café", "n": 1})
        assert " " not in text
        assert text.encode("ascii")  # must not raise

    def test_non_json_values_raise(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})

    def test_payload_digest_is_sha256_of_canonical_form(self):
        payload = {"z": 0, "a": 1}
        expected = hashlib.sha256(
            canonical_json(payload).encode("ascii")
        ).hexdigest()
        assert payload_digest(payload) == expected
        assert payload_digest({"a": 1, "z": 0}) == expected


class TestFingerprints:
    def test_deterministic_across_calls(self):
        assert code_fingerprint(["repro.partitions"]) == code_fingerprint(
            ["repro.partitions"]
        )

    def test_prefix_order_is_irrelevant(self):
        a = fingerprint_modules(("repro.partitions", "repro.kernels"))
        b = fingerprint_modules(("repro.kernels", "repro.partitions"))
        assert a == b

    def test_different_prefixes_differ(self):
        assert code_fingerprint(["repro.partitions"]) != code_fingerprint(
            ["repro.kernels"]
        )

    def test_non_repro_prefix_rejected(self):
        with pytest.raises(ValueError):
            code_fingerprint(["os.path"])

    def test_every_engine_kind_has_a_table_entry(self):
        for kind in ENGINE_KINDS:
            assert kind in FINGERPRINT_PREFIXES
            assert len(kind_fingerprint(kind)) == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kind_fingerprint("nope")


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: The engine function that runs each cacheable kind (engine/core.py).
KIND_RUNNERS = {
    "run": "execute_run",
    "exhaustive": "_run_exhaustive",
    "sampling": "_run_sampling",
    "ranks": "_run_ranks",
    "fault-sweep": "_run_fault_sweep",
}

#: Modules that cannot change a result's value: exception types, the
#: observation sinks, and the cooperative budget (it decides how much is
#: computed; partial shards are never stored).
NOT_RESULT_BEARING = (
    "repro.errors",
    "repro.obs.metrics",
    "repro.obs.spans",
    "repro.resilience.budget",
)


def _module_path(module):
    base = os.path.join(SRC, *module.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def _static_imports(tree):
    """repro.* modules named by import statements anywhere in ``tree``.

    A package ``__init__`` that re-exports lazily names its submodules
    only in the ``_LAZY_EXPORTS`` dict literal, so those count too.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module)
            # ``from package import module`` names the submodule too
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS"
                for t in node.targets
            )
            and isinstance(node.value, ast.Dict)
        ):
            out.update(ast.literal_eval(node.value).values())
    return {m for m in out if m.startswith("repro.") and _module_path(m)}


def _closure(kind):
    """The static import closure of a kind's runner, without importing.

    The runner's own module counts too: an edit to the runner (say, a
    parameter check) changes results as surely as one to a module it
    imports.
    """
    with open(_module_path("repro.engine.core"), encoding="utf-8") as handle:
        engine = ast.parse(handle.read())
    (runner,) = [
        node
        for node in engine.body
        if isinstance(node, ast.FunctionDef) and node.name == KIND_RUNNERS[kind]
    ]
    seen, stack = {"repro.engine.core"}, sorted(_static_imports(runner))
    while stack:
        module = stack.pop()
        if module in seen or module in NOT_RESULT_BEARING:
            continue
        seen.add(module)
        with open(_module_path(module), encoding="utf-8") as handle:
            stack.extend(_static_imports(ast.parse(handle.read())))
    return seen


class TestFingerprintClosure:
    @pytest.mark.parametrize("kind", sorted(KIND_RUNNERS))
    def test_prefixes_cover_the_static_import_closure(self, kind):
        # An under-wide prefix table serves stale entries after an edit
        # to an uncovered module; every module a kind's runner reaches
        # must be fingerprinted.
        prefixes = FINGERPRINT_PREFIXES[kind]
        uncovered = sorted(
            module
            for module in _closure(kind)
            if not any(module == p or module.startswith(p + ".") for p in prefixes)
        )
        assert uncovered == []

    @pytest.mark.parametrize("kind", ["run", "fault-sweep"])
    def test_run_observers_stay_in_the_closure(self, kind):
        # The cost observer fills RunResult.cost_summary, so the observer
        # module is result-bearing for every kind that runs the simulator.
        assert "repro.core.observers" in _closure(kind)

    def test_lazy_reexports_stay_in_the_closure(self):
        # partitions.linalg reaches the batched rank engine only through
        # repro.kernels' lazy re-export table.
        assert "repro.kernels.modp" in _closure("ranks")


class TestRequestKey:
    def test_deterministic_and_hex(self):
        key = request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert key == request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert len(key) == 64
        int(key, 16)  # must be a hex digest

    def test_every_material_field_matters(self):
        base = request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="f")
        assert base != request_key("sampling", {"n": 4}, kernel="auto", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 5}, kernel="auto", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 4}, kernel="reference", fingerprint="f")
        assert base != request_key("exhaustive", {"n": 4}, kernel="auto", fingerprint="g")
        assert base != request_key(
            "exhaustive", {"n": 4}, kernel="auto", result_version=2, fingerprint="f"
        )

    def test_workers_never_reaches_the_key(self):
        # normalization strips workers before keying; even a stray field
        # spelled identically must change the key (it is part of params),
        # so the invariance contract lives in normalization, not hashing.
        a = request_key("exhaustive", {"n": 4}, fingerprint="f")
        b = request_key("exhaustive", {"n": 4, "workers": 2}, fingerprint="f")
        assert a != b  # params are hashed verbatim: callers must normalize


class TestItemKey:
    def test_shard_key_is_a_contiguous_item_key(self):
        assert shard_key(
            "exhaustive", {"n": 4}, 0, 81, seed=123, fingerprint="f"
        ) == item_key(
            "exhaustive",
            {"n": 4},
            {"start": 0, "stop": 81, "seed": 123},
            fingerprint="f",
        )

    def test_item_and_request_keys_never_collide(self):
        params = {"n": 4}
        assert request_key("exhaustive", params, fingerprint="f") != item_key(
            "exhaustive", params, {"start": 0, "stop": 81, "seed": 1}, fingerprint="f"
        )

    def test_distinct_items_get_distinct_keys(self):
        params = {"n": 6, "trials": 2, "seed": 0}
        a = item_key("fault-sweep", params, {"algorithm": "flooding", "a_idx": 0})
        b = item_key("fault-sweep", params, {"algorithm": "flooding", "a_idx": 1})
        assert a != b
