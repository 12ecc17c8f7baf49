"""Each command loads only what it runs (lazy package re-exports).

Every ``repro.*`` package re-exports its submodules' names through a
PEP 562 ``_LAZY_EXPORTS`` table served by :func:`repro.lazy_getattr`,
sympy is imported only by the cost cross-check, and numpy only when a
numpy kernel fires. The subprocess probes pin which heavy dependencies
each CLI command may load, and which ``repro`` modules building the
parser loads; the identity test pins that laziness never changes what a
public name refers to.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every package under ``src/repro``, found on disk rather than listed.
LAZY_PACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_packages_are_found():
    # An empty parametrization below would skip, not fail.
    assert "repro.core" in LAZY_PACKAGES and len(LAZY_PACKAGES) >= 22


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_reexports_are_the_submodule_objects(package):
    # Importing a submodule binds it as a package attribute, which would
    # shadow a lazy export of the same name.
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")
    for name in pkg.__all__:
        source = importlib.import_module(pkg._LAZY_EXPORTS.get(name, package))
        assert getattr(pkg, name) is getattr(source, name), name


PROBE = """
import contextlib, io, json, runpy, sys

sys.argv = ["repro"] + sys.argv[1:]
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _loaded(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] in (0, None), (argv, proc.stderr)
    return set(report["modules"])


#: Commands that run no numpy kernel at these sizes.
NO_NUMPY = [
    ("list",),
    ("crossing", "--n", "8", "--rounds", "2"),
    ("star", "--n", "12", "--rounds", "2"),
    ("forced-error", "--n", "4"),
    ("ratio", "--max-exp", "4"),
    ("fault-sweep", "--quick"),
    # the exhaustive scanner is pure python at every worker count
    ("exhaustive", "--n", "5"),
    ("sampling", "--n", "5", "--samples", "200"),
    # M_1..M_4, E_2..E_6: at most 15 rows, below linalg.BATCHED_MIN_ROWS,
    # so every rank runs the pure-python reference
    ("ranks", "--max-n", "4"),
]

#: Commands that do run a numpy kernel, so load numpy, but not sympy.
NUMPY_KERNEL = [
    # rank(M_5) (52 rows) mod p runs the batched int64 elimination
    ("ranks", "--max-n", "5"),
]


@pytest.mark.parametrize("argv", NO_NUMPY, ids=lambda a: " ".join(a))
def test_command_loads_neither_sympy_nor_numpy(argv, tmp_path):
    modules = _loaded(argv, tmp_path)
    assert "sympy" not in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", NUMPY_KERNEL, ids=lambda a: " ".join(a))
def test_command_loads_no_sympy(argv, tmp_path):
    modules = _loaded(argv, tmp_path)
    assert "sympy" not in modules
    assert ("numpy" in modules) == (importlib.util.find_spec("numpy") is not None)


#: Commands of the ``cli_light`` end-to-end workload that run no search
#: or estimate: none of them may load the executor, the information
#: engine, the two-party protocols or a process pool's modules.
NO_POOL = [
    ("list",),
    ("crossing", "--n", "8", "--rounds", "2", "--json"),
    ("star", "--n", "12", "--rounds", "2", "--json"),
    ("forced-error", "--n", "4", "--json"),
    ("ratio", "--max-exp", "4", "--json"),
    # each rank is serial eliminations: no fan-out, so no repro.parallel
    ("ranks", "--max-n", "4", "--json"),
]

UNCALLED_PACKAGES = (
    "repro.parallel",
    "repro.information",
    "repro.twoparty",
    "repro.costs.specs",
    "repro.costs.calculus",
)


@pytest.mark.parametrize("argv", NO_POOL, ids=lambda a: " ".join(a))
def test_light_command_loads_only_its_call_path(argv, tmp_path):
    modules = _loaded(argv, tmp_path)
    uncalled = sorted(
        m
        for m in modules
        if any(m == p or m.startswith(p + ".") for p in UNCALLED_PACKAGES)
    )
    assert uncalled == []
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules


def test_closed_form_ratio_runs_no_graph_machinery(tmp_path):
    # Lemma 3.9's table is closed-form: no simulator, crossing or graph
    # builder (only the measured-degree helpers need those).
    modules = _loaded(("ratio", "--max-exp", "4", "--json"), tmp_path)
    for name in (
        "repro.core.simulator",
        "repro.crossing",
        "repro.indist.graph_builder",
    ):
        assert name not in modules


def test_exhaustive_loads_no_kernel_module(tmp_path):
    # The G^0 builder and Hopcroft-Karp have one engine each, in
    # repro.indist; the only kernels left are the rank engine's.
    modules = _loaded(("exhaustive", "--n", "5"), tmp_path)
    assert sorted(m for m in modules if m.startswith("repro.kernels.")) == []


def test_cached_fault_sweep_hit_loads_no_simulator(tmp_path):
    # A hit validates the stored payload; the validator lives apart from
    # the sweep machinery, so the hit never imports the round engine.
    from repro.cli import main

    argv = ("fault-sweep", "--quick", "--cache", str(tmp_path / "cache"))
    assert main(list(argv)) == 0
    modules = _loaded(argv, tmp_path)
    for name in (
        "repro.core.simulator",
        "repro.algorithms",
        "repro.resilience.harness",
    ):
        assert name not in modules
    assert "repro.resilience.schema" in modules


#: Searches, estimates and sweeps this small run in process at either
#: worker count: ``ParallelExecutor`` forks a pool only after
#: ``POOL_AFTER_SECONDS`` of in-process work, and imports the process
#: pool's modules only when it starts one.
SERIAL = [
    (*argv, "--workers", workers)
    for argv in (
        ("exhaustive", "--n", "5"),
        ("sampling", "--n", "5", "--samples", "200"),
        ("fault-sweep", "--quick"),
    )
    for workers in ("1", "2")
]


@pytest.mark.parametrize("argv", SERIAL, ids=lambda a: " ".join(a))
def test_serial_run_loads_no_process_pool(argv, tmp_path):
    modules = _loaded(argv, tmp_path)
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules


#: All that ``list`` and ``<cmd> --help`` may load from ``repro``: the
#: engine's kind list (``record`` choices), the kernel modes and the two
#: defaults the help text prints (``cache gc --max-bytes``, ``bench
#: --history``), each read from its package ``__init__``. The command
#: table itself lives in ``repro.cli``, which runs as ``__main__``.
PARSER_MODULES = {
    "repro",
    "repro.cache",
    "repro.engine",
    "repro.engine.core",
    "repro.engine.request",
    "repro.errors",
    "repro.kernels",
    "repro.obs",
}


def _parser_argvs():
    from repro.cli import COMMANDS

    yield ("list",)
    for command in COMMANDS:
        yield (command.name, "--help")
        for action in command.actions:
            yield (command.name, action.name, "--help")


@pytest.mark.parametrize("argv", list(_parser_argvs()), ids=" ".join)
def test_parser_loads_only_pinned_modules(argv, tmp_path):
    loaded = {m for m in _loaded(argv, tmp_path) if m.split(".")[0] == "repro"}
    assert loaded == PARSER_MODULES
