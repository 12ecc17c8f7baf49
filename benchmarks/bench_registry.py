"""Every paper experiment, timed at its full parameters.

Each experiment (E1-E10, A1-A4, R1, P1-P4, O2) is defined once, as a
runner in the ``repro bench`` registry (:mod:`repro.obs.bench`); this file
parametrizes one pytest-benchmark test over that registry, so the two
lists cannot drift. Each case prints the runner's measured vs predicted
values and asserts its ``ok`` predicate. ``repro bench --quick`` (tier-1)
runs the same runners at their small parameter sets.

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s
    PYTHONPATH=src python -m pytest benchmarks/bench_registry.py --benchmark-disable -q
"""

import pytest

from repro.analysis import print_table
from repro.obs import BenchmarkHarness, bench_names


@pytest.mark.parametrize("name", bench_names())
def test_experiment(benchmark, name):
    harness = BenchmarkHarness(out_dir=None, quick=False)
    # One timed call each: the full `kernels` leg alone takes ~20 s.
    result = benchmark.pedantic(harness.run_one, args=(name,), rounds=1, iterations=1)
    keys = sorted(set(result.measured) | set(result.predicted))
    print_table(
        f"{name}: {result.description}",
        ["quantity", "measured", "predicted"],
        [
            [key, result.measured.get(key, "-"), result.predicted.get(key, "-")]
            for key in keys
            if key != "rows"
        ],
    )
    assert result.ok, result.measured
