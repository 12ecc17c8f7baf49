"""The four end-to-end workloads: seeded request lists for ``repro.cli``.

A request is a tuple of ``python -m repro.cli`` arguments. The token
``{cache}`` stands for the run's fresh cache directory and is filled in
by the runner. Every list is a pure function of the seed, and
``ranks_dense`` does not depend on it at all: its requests are the
paper's fixed matrices.

Lists are ordered by a *spread* shuffle rather than a plain one. Each
request class is placed at evenly spaced, randomly jittered positions,
so every prefix of a list carries close to the full mix. A run that is
cut off by its time limit therefore measures the same mix whatever the
seed, which is what keeps the medians steady from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

Request = Tuple[str, ...]

WORKLOADS = ("cli_light", "search_parallel", "ranks_dense", "fault_sweep")

CACHE = "{cache}"

# Workloads whose lists come in consecutive groups of this size: the
# workers=1 / workers=2 twins. A run stops only between groups, so it
# always holds as many workers=1 as workers=2 requests; otherwise the
# median would flip between the two latency clusters from run to run.
GROUP = {"search_parallel": 2}

# The smallest valid arguments per subcommand, for the set-up warm-ups.
_SMALLEST: Dict[str, Request] = {
    "list": (),
    "crossing": ("--n", "6", "--rounds", "1"),
    "star": ("--n", "4", "--rounds", "1"),
    "forced-error": ("--n", "4", "--rounds", "1"),
    "ratio": ("--max-exp", "1"),
    "exhaustive": ("--n", "3"),
    "ranks": ("--max-n", "1"),
    "sampling": ("--n", "2", "--samples", "2"),
    "fault-sweep": (
        "--n", "6", "--trials", "1", "--rates", "0.0",
        "--algorithms", "neighbor_exchange", "--kinds", "bit_flip",
    ),
}


def _spread(classes: Sequence[List[List[Request]]], rng: random.Random) -> List[Request]:
    """Interleave each class's units evenly, with seeded jitter.

    A unit is a list of requests that stays contiguous (a workers=1 /
    workers=2 pair). Unit ``j`` of a class with ``k`` units gets the
    sort key ``(j + u) / k`` with ``u`` uniform in [0, 1).
    """
    keyed = []
    for units in classes:
        k = len(units)
        for j, unit in enumerate(units):
            keyed.append(((j + rng.random()) / k, unit))
    keyed.sort(key=lambda pair: pair[0])
    return [request for _, unit in keyed for request in unit]


def _cli_light(rng: random.Random) -> List[Request]:
    plain = [
        ("list",),
        ("crossing", "--n", "8", "--rounds", "2", "--json"),
        ("star", "--n", "12", "--rounds", "2", "--json"),
        ("forced-error", "--n", "4", "--json"),
        ("ratio", "--max-exp", "4", "--json"),
    ]
    sampling_seed = str(rng.randrange(1_000_000))
    cached = [
        ("exhaustive", "--n", "5"),
        ("ranks", "--max-n", "4"),
        ("sampling", "--n", "5", "--samples", "200", "--seed", sampling_seed),
        ("fault-sweep", "--quick"),
    ]
    classes = [[[r]] * 4 for r in plain]
    classes += [[[r + ("--cache", CACHE, "--json")]] * 5 for r in cached]
    return _spread(classes, rng)


def _search_parallel(rng: random.Random) -> List[Request]:
    def pair(argv: Request) -> List[Request]:
        unit = [argv + ("--workers", w, "--json") for w in ("1", "2")]
        rng.shuffle(unit)
        return unit

    seeds = rng.sample(range(1_000_000), 14)
    sampling = [
        pair(("sampling", "--n", "7", "--samples", "8000", "--seed", str(s)))
        for s in seeds
    ]
    exhaustive = [pair(("exhaustive", "--n", "7")) for _ in range(6)]
    return _spread([sampling, exhaustive], rng)


def _ranks_dense(_rng: random.Random) -> List[Request]:
    return [("ranks", "--max-n", "7", "--json")] * 8


def _fault_sweep(rng: random.Random) -> List[Request]:
    return [
        ("fault-sweep", "--n", "8", "--trials", "2", "--seed", str(s), "--json")
        for s in rng.sample(range(1_000_000), 24)
    ]


_LIST_MAKERS = {
    "cli_light": _cli_light,
    "search_parallel": _search_parallel,
    "ranks_dense": _ranks_dense,
    "fault_sweep": _fault_sweep,
}


def requests(workload: str, seed: int) -> List[Request]:
    """The workload's request list for ``seed`` (same seed, same list)."""
    return _LIST_MAKERS[workload](random.Random(f"{workload}:{seed}"))


def warmups(reqs: Sequence[Request]) -> List[Request]:
    """One smallest-size request per distinct subcommand in ``reqs``.

    Each warm-up carries the flags ``reqs`` use with that subcommand
    (``--workers`` at its largest value, ``--cache``, ``--json``), so the
    same code paths are imported and compiled.
    """
    out: List[Request] = []
    for command in dict.fromkeys(r[0] for r in reqs):
        uses = [r for r in reqs if r[0] == command]
        argv = (command,) + _SMALLEST[command]
        workers = [int(r[r.index("--workers") + 1]) for r in uses if "--workers" in r]
        if workers:
            argv += ("--workers", str(max(workers)))
        if any(CACHE in r for r in uses):
            argv += ("--cache", CACHE)
        if any("--json" in r for r in uses):
            argv += ("--json",)
        out.append(argv)
    return out


def digest(reqs: Sequence[Request]) -> str:
    """SHA-256 of a request list, so runs can be matched to their inputs."""
    return hashlib.sha256(json.dumps([list(r) for r in reqs]).encode()).hexdigest()
