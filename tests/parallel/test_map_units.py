"""The one cached, budgeted shard map (:func:`repro.parallel.map_units`).

The exhaustive search, the sampled information estimate and the fault
sweep all run their units through it; these tests pin its contract on a
toy worker, and that no other module talks to the shard cache or splits
a budget itself.
"""

import ast
import pathlib

import repro
from repro.cache import ResultCache, ShardCache
from repro.errors import BudgetExceededError
from repro.parallel import map_units
from repro.resilience import Budget


def _count_worker(payload):
    """Tick one budget unit per work unit; report how many ran."""
    size, shard_budget = payload
    try:
        budget = None if shard_budget is None else shard_budget.to_budget()
    except BudgetExceededError:
        return {"done": 0}
    done = 0
    try:
        for _ in range(size):
            done += 1
            if budget is not None:
                budget.tick()
    except BudgetExceededError:
        pass
    return {"done": done}


SIZES = (3, 3, 2)


def _map(cache=None, budget=None, on_result=None):
    return map_units(
        _count_worker,
        [({"unit": i}, size) for i, size in enumerate(SIZES)],
        lambda i, sb: (SIZES[i], sb),
        lambda result: result.get("done"),
        cache=cache,
        budget=budget,
        on_result=on_result,
    )


def _cache(root):
    return ShardCache(ResultCache(str(root)), "toy", {"sizes": list(SIZES)})


def test_budget_equal_to_the_units_raises_and_one_more_completes():
    total = sum(SIZES)
    stopped = _map(budget=Budget(max_units=total, check_interval=1))
    assert stopped.exhausted and stopped.consumed == total
    assert stopped.budget_message == f"work budget exhausted: {total} >= {total} units"
    done = _map(budget=Budget(max_units=total + 1, check_interval=1))
    assert not done.exhausted and done.budget_message is None
    assert [r["done"] for r in done.results] == list(SIZES)


def test_a_stopped_unit_is_not_stored_and_hits_fire_first(tmp_path):
    cache = _cache(tmp_path)
    stopped = _map(cache=cache, budget=Budget(max_units=4, check_interval=1))
    assert [r["done"] for r in stopped.results] == [3, 1, 0]
    assert stopped.exhausted
    seen = []
    resumed = _map(cache=cache, on_result=lambda i, r: seen.append(i))
    assert resumed.fresh == [False, True, True]
    assert resumed.consumed == 5
    assert seen == [0, 1, 2]
    assert _map(cache=cache).fresh == [False, False, False]


def test_an_entry_that_does_not_cover_its_unit_is_recomputed(tmp_path):
    cache = _cache(tmp_path)
    cache.put_item({"unit": 0}, {"done": 2})
    mapped = _map(cache=cache)
    assert mapped.fresh == [True, True, True]
    assert cache.get_item({"unit": 0}) == {"done": 3}


#: Calls that read or write the shard cache, split a budget over shards
#: or start a pool: only the shared map may make them.
SHARD_PLUMBING = {"ParallelExecutor", "get_item", "put_item", "split_budget"}


def _plumbing_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SHARD_PLUMBING:
                yield name


def test_only_the_shared_map_touches_the_shard_cache():
    src = pathlib.Path(repro.__file__).parent
    callers = {}
    for path in sorted(src.rglob("*.py")):
        names = sorted(set(_plumbing_calls(path)))
        if names:
            callers[path.relative_to(src).as_posix()] = names
    # ShardCache's own get_item/put_item are definitions, not calls.
    assert callers == {
        "parallel/shard.py": ["ParallelExecutor", "get_item", "put_item", "split_budget"]
    }

