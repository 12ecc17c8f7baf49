"""The engine dispatcher: one ``execute`` for every run path in the repo.

This module holds the execution bodies that used to live inline in
``cli.py`` subcommands and :mod:`repro.replay.engines`. Both are now
thin adapters: the CLI builds an :class:`~repro.engine.request.EngineRequest`
and formats the returned payload; record/replay calls
:func:`run_record`, which executes the same runners with session
recording and the exact payload shapes sessions have always stored.

The content-addressed cache plugs in here, at two granularities:

* **whole-request** -- ``execute(request, cache=...)`` keys the
  normalized request (:func:`repro.cache.request_key`) and returns the
  stored payload on a hit without touching the compute layer;
* **per-shard** -- the fan-out kinds additionally thread a
  :class:`repro.cache.ShardCache` into their compute layer
  (``exhaustive`` and ``sampling`` shards, ``fault-sweep`` grid cells),
  so a re-run that shares only *part* of its work with history -- a
  resumed budget-exhausted or interrupted run, an overlapping grid --
  computes the delta, and each kind's fold (in unit order) reassembles
  mixed cached+fresh pieces.

Hit/recompute byte-identity is structural, not hoped-for: every fresh
payload is round-tripped through canonical JSON before being returned
*or* stored, so the object a caller sees never depends on whether the
cache was warm. Payloads contain no wall-clock fields (``fault-sweep``'s
volatile ``created_unix`` / ``wall_time_seconds`` are zeroed, as the
record/replay layer has always done).

All experiment imports stay inside function bodies -- the repo's
convention for keeping the observability/CLI layers cycle-free.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Mapping, Optional

from repro.engine.request import (
    ENGINE_KINDS,
    ENGINE_RESULT_VERSION,
    EngineOptions,
    EngineRequest,
    EngineResult,
    normalize_params,
)
from repro.errors import SessionError

__all__ = [
    "execute",
    "execute_run",
    "run_payload",
    "run_record",
    "sweep_rows_from_payload",
]


# ----------------------------------------------------------------------
# the ``run`` kind (one simulator execution)
# ----------------------------------------------------------------------
def execute_run(params: Mapping[str, Any], session=None, trace=None, metrics=None):
    """Run one simulator execution from ``run`` params; returns RunResult.

    Exposed separately from the payload path so golden tests (and the
    rewind cursor's branch re-execution) can compare full
    :class:`~repro.core.simulator.RunResult` objects, not just payloads.
    """
    from repro.core.randomness import PublicCoin
    from repro.core.simulator import Simulator
    from repro.costs.ledger import CostLedger
    from repro.instances import one_cycle_instance, two_cycle_instance
    from repro.net.plan import NetworkPlan
    from repro.resilience.faults import FaultPlan
    from repro.resilience.harness import HARNESS_ALGORITHMS

    algorithm = params.get("algorithm")
    if algorithm not in HARNESS_ALGORITHMS:
        raise SessionError(
            f"unknown algorithm {algorithm!r}; known: {sorted(HARNESS_ALGORITHMS)}"
        )
    spec = HARNESS_ALGORITHMS[algorithm]
    n = int(params["n"])
    family = params.get("instance", "one_cycle")
    if family == "one_cycle":
        instance = one_cycle_instance(n, kt=spec.kt)
    elif family == "two_cycle":
        split = params.get("split")
        if split is None:
            raise SessionError("two_cycle instances need a 'split' parameter")
        instance = two_cycle_instance(n, int(split), kt=spec.kt)
    else:
        raise SessionError(
            f"unknown instance family {family!r}; "
            f"expected 'one_cycle' or 'two_cycle'"
        )
    rounds = params.get("rounds")
    rounds = spec.rounds(n) if rounds is None else int(rounds)
    coin_seed = params.get("coin_seed")
    coin = PublicCoin(str(coin_seed)) if coin_seed is not None else None
    faults = params.get("faults")
    plan = FaultPlan.from_dict(faults) if faults is not None else None
    network = params.get("network")
    net = NetworkPlan.from_dict(network) if network is not None else None
    simulator = Simulator(spec.model(n), metrics=metrics, trace=trace, costs=CostLedger())
    return simulator.run(
        instance,
        spec.factory(n),
        rounds,
        coin=coin,
        faults=plan,
        network=net,
        session=session,
    )


def run_payload(result) -> Dict[str, Any]:
    """The deterministic JSON payload of one simulator RunResult."""
    from repro.core.decision import decision_of_run

    return {
        "decision": decision_of_run(result),
        "outputs": list(result.outputs),
        "rounds_executed": result.rounds_executed,
        "all_finished": result.all_finished,
        "total_bits": result.total_bits_broadcast(),
        "faults_injected": len(result.fault_events),
        "crashed_vertices": list(result.crashed_vertices),
        "failed_vertices": list(result.failed_vertices),
        "delivery_anomalies": len(result.network_events),
        "delivery_stats": [dict(stats) for stats in result.delivery_stats],
        "cost_summary": result.cost_summary,
    }


# ----------------------------------------------------------------------
# per-kind runners (payload shapes are frozen: sessions replay them)
# ----------------------------------------------------------------------
def _run_exhaustive(
    params: Mapping[str, Any],
    workers: int = 1,
    session=None,
    budget=None,
    metrics=None,
    shard_cache=None,
) -> Dict[str, Any]:
    from repro.lowerbounds.exhaustive import universal_bound_id_oblivious

    report = universal_bound_id_oblivious(
        int(params["n"]),
        alphabet=tuple(params.get("alphabet", ("", "0", "1"))),
        metrics=metrics,
        budget=budget,
        workers=int(workers),
        population=bool(params.get("population", False)),
        shard_cache=shard_cache,
    )
    payload = {
        "n": report.n,
        "class_size": report.class_size,
        "minimum_forced_error": report.minimum_forced_error,
        "worst_assignment": list(report.worst_assignment),
        "is_constant": report.is_constant,
    }
    if report.population is not None:
        payload["population"] = report.population
    if session is not None:
        session.write_step("report", payload)
    return payload


def _run_sampling(
    params: Mapping[str, Any],
    workers: int = 1,
    session=None,
    budget=None,
    shard_cache=None,
) -> Dict[str, Any]:
    from repro.information.sampling import estimate_protocol_information
    from repro.twoparty import (
        LossyPartitionCompProtocol,
        TrivialPartitionCompProtocol,
    )

    n = int(params["n"])
    eps = float(params.get("eps", 0.0))
    # Every eps but 0 goes through the lossy protocol's range check, so a
    # negative or NaN eps fails instead of running the exact protocol.
    protocol = (
        TrivialPartitionCompProtocol(n)
        if eps == 0
        else LossyPartitionCompProtocol(n, eps)
    )
    rng = random.Random(int(params.get("seed", 0)))
    report = estimate_protocol_information(
        protocol,
        n,
        int(params["samples"]),
        rng,
        budget=budget,
        workers=int(workers),
        shard_cache=shard_cache,
    )
    payload = {
        "n": report.n,
        "samples": report.samples,
        "information_estimate": report.information_estimate,
        "corrected_information": report.corrected_information,
        "true_input_entropy": report.true_input_entropy,
        "distinct_inputs_seen": report.distinct_inputs_seen,
        "distinct_transcripts_seen": report.distinct_transcripts_seen,
        "error_rate_estimate": report.error_rate_estimate,
        "saturated": report.saturated,
    }
    if session is not None:
        session.write_step("report", payload)
    return payload


def _run_ranks(
    params: Mapping[str, Any],
    kernel: str = "auto",
    session=None,
) -> Dict[str, Any]:
    from repro.partitions import bell_number, perfect_matching_count
    from repro.partitions.matrices import e_matrix_rank, m_matrix_rank

    def _m_rank(n: int) -> int:
        return m_matrix_rank(n, kernel=kernel)

    def _e_rank(n: int) -> int:
        return e_matrix_rank(n, kernel=kernel)

    if params.get("ns") is not None:
        ns = [int(n) for n in params["ns"]]
        if not ns:
            raise SessionError("ranks sessions need a non-empty 'ns' parameter")
        rows: List[Dict[str, Any]] = []
        for n in ns:
            row: Dict[str, Any] = {"n": n, "m_rank": _m_rank(n)}
            if n % 2 == 0:
                row["e_rank"] = _e_rank(n)
            rows.append(row)
            if session is not None:
                session.write_step(f"rank/{n}", row)
        return {"rows": rows}
    m_rows = [
        {"n": n, "rank": _m_rank(n), "predicted": bell_number(n)}
        for n in [int(n) for n in params.get("m_ns", ())]
    ]
    e_rows = [
        {"n": n, "rank": _e_rank(n), "predicted": perfect_matching_count(n)}
        for n in [int(n) for n in params.get("e_ns", ())]
    ]
    return {"m_rows": m_rows, "e_rows": e_rows}


def _run_fault_sweep(
    params: Mapping[str, Any],
    workers: int = 1,
    session=None,
    trace=None,
    metrics=None,
    cell_cache=None,
) -> Dict[str, Any]:
    from repro.resilience.harness import fault_sweep

    report = fault_sweep(
        algorithms=tuple(
            params.get(
                "algorithms",
                ("neighbor_exchange", "flooding", "boruvka", "sketch"),
            )
        ),
        kinds=tuple(params.get("kinds", ("bit_flip", "erasure", "crash"))),
        rates=tuple(params.get("rates", (0.0, 0.01, 0.05, 0.1, 0.2))),
        n=int(params.get("n", 8)),
        trials=int(params.get("trials", 10)),
        seed=int(params.get("seed", 0)),
        metrics=metrics,
        trace=trace,
        workers=int(workers),
        session=session,
        cell_cache=cell_cache,
    )
    payload = report.as_payload()
    # Volatile fields zeroed: a payload must compare equal across record
    # and replay -- and across cold and warm cache runs -- so wall time
    # is not part of the result.
    payload["created_unix"] = 0.0
    payload["wall_time_seconds"] = 0.0
    return payload


# ----------------------------------------------------------------------
# record/replay adapter (payload shapes frozen since the sessions PR)
# ----------------------------------------------------------------------
def run_record(kind: str, params: Mapping[str, Any], session=None) -> Dict[str, Any]:
    """Execute a recordable ``(kind, params)`` pair; returns the payload.

    The compatibility seam for :func:`repro.replay.engines.execute_record`:
    kernel/workers ride inside ``params`` (that is where session headers
    keep them), payloads are byte-for-byte what sessions have always
    stored, and unknown kinds raise :class:`~repro.errors.SessionError`.
    """
    workers = int(params.get("workers", 1))
    if kind == "run":
        return run_payload(execute_run(params, session=session))
    if kind == "exhaustive":
        return _run_exhaustive(params, workers=workers, session=session)
    if kind == "sampling":
        return _run_sampling(params, workers=workers, session=session)
    if kind == "ranks":
        if params.get("ns") is None:
            raise SessionError("ranks sessions need a non-empty 'ns' parameter")
        return _run_ranks(params, kernel=params.get("kernel", "auto"), session=session)
    if kind == "fault-sweep":
        return _run_fault_sweep(params, workers=workers, session=session)
    raise SessionError(f"unknown session kind {kind!r}; known: {ENGINE_KINDS}")


# ----------------------------------------------------------------------
# presentation helper shared by the CLI and the dashboards
# ----------------------------------------------------------------------
def sweep_rows_from_payload(payload: Mapping[str, Any]) -> List[List[Any]]:
    """Flat CLI-table rows from a ``fault_sweep`` payload.

    Mirrors :meth:`repro.resilience.FaultSweepReport.rows` exactly, but
    reads the JSON payload -- the only form a cache hit has.
    """
    rows: List[List[Any]] = []
    for curve in payload.get("curves", ()):
        for point in curve.get("points", ()):
            rows.append(
                [
                    curve["algorithm"],
                    curve["fault_kind"],
                    point["rate"],
                    point["trials"],
                    point["correct"],
                    round(point["correctness_rate"], 4),
                    point["faults_injected"],
                    round(point["mean_rounds"], 2),
                ]
            )
    return rows


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------
def _json_roundtrip(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical-JSON-shaped copy: tuples become lists, keys become str.

    Applied to *every* fresh payload -- cache on or off -- so the object
    a caller receives never depends on cache temperature.
    """
    from repro.cache.keys import canonical_json

    return json.loads(canonical_json(payload))


def _emit_cache_event(trace, status: str, kind: str, key: str) -> None:
    if trace is not None:
        trace.emit("cache", status=status, kind=kind, key=key)


def execute(
    request: EngineRequest,
    cache=None,
    options: Optional[EngineOptions] = None,
) -> EngineResult:
    """Dispatch one :class:`EngineRequest`; returns an :class:`EngineResult`.

    With ``cache`` (a :class:`repro.cache.ResultCache`) attached, the
    normalized request is looked up first -- a hit returns the stored
    payload byte-identically and never touches the compute layer. On a miss the fan-out kinds additionally carry a
    :class:`~repro.cache.ShardCache` into their compute layer, the fresh
    payload is stored, and the request's key is returned either way.
    ``cache=None`` (or a disabled cache) is *exactly* the legacy path:
    no key derivation, no fingerprinting, no lookups.

    A budget-exhausted run propagates
    :class:`~repro.errors.BudgetExceededError` and stores nothing at the
    request granularity (the partial is not the result), but shards that
    *completed* under the budget -- or before an interrupt -- are already
    cached, so re-running the same request is the resume: it computes
    only the missing shards.
    """
    opts = options if options is not None else EngineOptions()
    kind = request.kind
    params = normalize_params(kind, request.params)  # rejects unknown kinds
    kernel = str(request.kernel)
    workers = int(request.workers)

    use_cache = (
        cache is not None
        and getattr(cache, "enabled", False)
        and opts.session is None
    )
    key: Optional[str] = None
    fingerprint = ""
    if use_cache:
        from repro.cache.keys import kind_fingerprint, request_key

        fingerprint = kind_fingerprint(kind)
        key = request_key(
            kind,
            params,
            kernel=kernel,
            result_version=ENGINE_RESULT_VERSION,
            fingerprint=fingerprint,
        )
        hit = cache.get(key)
        if hit is not None:
            _emit_cache_event(opts.trace, "hit", kind, key)
            return EngineResult(
                kind=kind, params=params, kernel=kernel, payload=hit,
                cached=True, key=key,
            )
        _emit_cache_event(opts.trace, "miss", kind, key)

    shard_cache = None
    if use_cache and kind in ("exhaustive", "sampling", "fault-sweep"):
        from repro.cache.shards import ShardCache

        binding = params
        if kind == "fault-sweep":
            # Cells are pure functions of (coordinates, n, trials, seed)
            # -- NOT of the full grid -- so the binding drops the
            # algorithm/kind/rate lists and overlapping grids share
            # per-cell entries.
            binding = {key: params[key] for key in ("n", "trials", "seed")}
        shard_cache = ShardCache(
            cache, kind, binding, kernel=kernel,
            result_version=ENGINE_RESULT_VERSION, fingerprint=fingerprint,
        )

    if kind == "run":
        payload = run_payload(
            execute_run(
                params, session=opts.session, trace=opts.trace, metrics=opts.metrics
            )
        )
    elif kind == "exhaustive":
        payload = _run_exhaustive(
            params,
            workers=workers,
            session=opts.session,
            budget=opts.budget,
            metrics=opts.metrics,
            shard_cache=shard_cache,
        )
    elif kind == "sampling":
        payload = _run_sampling(
            params,
            workers=workers,
            session=opts.session,
            budget=opts.budget,
            shard_cache=shard_cache,
        )
    elif kind == "ranks":
        payload = _run_ranks(params, kernel=kernel, session=opts.session)
    else:  # fault-sweep
        payload = _run_fault_sweep(
            params,
            workers=workers,
            session=opts.session,
            trace=opts.trace,
            metrics=opts.metrics,
            cell_cache=shard_cache,
        )

    payload = _json_roundtrip(payload)
    if use_cache:
        cache.put(key, kind, payload)
    return EngineResult(
        kind=kind, params=params, kernel=kernel, payload=payload,
        cached=False, key=key,
    )
