"""Sampled mutual-information estimation, and the one shard fold that
runs a protocol over the Theorem 4.5 hard distribution.

:func:`fold_runs` runs a protocol on a list of inputs (RGS of P_A; P_B
is the finest partition) through :func:`repro.parallel.shard.map_units`
and merges the (input, transcript) counts and the error count. Both
evaluations of the chain go through it: the exact one
(:func:`repro.information.partition_comp.evaluate_protocol`) passes every
RGS once, so ``information --n 10`` (B_10 = 115,975) takes ~8 s on a
2-vCPU host, and each further n multiplies B_n by about six. The sampled
counterpart here passes N uniform draws (the exact-uniform RGS sampler)
and estimates the information quantities with the plug-in
(maximum-likelihood) estimator over the empirical joint.

The protocols here are deterministic and P_B is fixed, so a run is a
function of P_A alone: N samples draw at most B_n distinct inputs (877
at n = 7 against 8000 samples). Each process therefore runs the protocol
once per distinct input and protocol and keeps the outcome in a memo
(:func:`clear_run_memo`). The memo is per process: a pool forks only
after the executor's in-process shards have run for a while, so its
workers start from a copy of the memo those shards warmed, and keep
what they add to themselves.
Samples, budget ticks and joint counts stay one per draw, so the memo
changes no report, no budget boundary and no cached shard.

Two standard caveats are surfaced rather than hidden:

* the plug-in estimate of I is biased upward by roughly
  (#distinct transcripts - 1) / (2 N ln 2) bits (Miller-Madow); the
  estimator reports that correction alongside the raw value;
* when the protocol is injective on P_A (the correct-protocol regime),
  I equals H(P_A), and the plug-in estimate of H from N samples cannot
  exceed log2 N -- the report includes the support coverage so callers
  can see saturation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import BudgetExceededError
from repro.obs.spans import span
from repro.information.entropy import (
    entropy,
    marginal_x,
    marginal_y,
    mutual_information,
)
from repro.parallel.shard import MappedUnits, ShardPlan, map_units
from repro.partitions.bell import bell_number
from repro.partitions.enumeration import random_rgs
from repro.partitions.set_partition import SetPartition
from repro.resilience.budget import Budget
from repro.twoparty.protocol import TwoPartyProtocol

#: Samples per shard. A shard runs the protocol only on inputs the run
#: memo below has not seen, so at n = 7 a cold shard takes ~40 ms and a
#: warm one under 1 ms (2-vCPU Xeon, Python 3.11). The size bounds the
#: work a kill can lose (completed shards are cached) and fixes the
#: shard plan that the shard-cache items are keyed on.
SAMPLING_SHARD_UNITS = 512

#: Per protocol, the outcome of every input run so far in this process:
#: ``(type, instance attributes, n) -> {P_A's RGS: ((repr(P_A),
#: transcript string), wrong)}``, where ``wrong`` means Alice's or
#: Bob's output is not P_A. Valid because a run is a pure function of
#: the two inputs and the instance's attributes (the
#: :class:`TwoPartyProtocol` contract) and P_B is always the finest
#: partition.
_RUNS: Dict[Tuple[Any, ...], Dict[Tuple[int, ...], Tuple[Tuple[str, str], bool]]] = {}


def clear_run_memo() -> None:
    """Forget every memoized protocol run (tests that count runs)."""
    _RUNS.clear()


@dataclass(frozen=True)
class SampledInformationReport:
    """Plug-in estimates from N protocol runs on the hard distribution."""

    n: int
    samples: int
    information_estimate: float
    miller_madow_correction: float
    input_entropy_estimate: float
    true_input_entropy: float  # log2 B_n (known exactly)
    distinct_inputs_seen: int
    distinct_transcripts_seen: int
    error_rate_estimate: float
    #: Population sketches over the sampled transcripts (name ->
    #: serialized state, see :mod:`repro.obs.sketches`): transcript-bit
    #: quantiles and transcript frequency counts. Derived purely from
    #: the merged per-transcript counts, so every worker count carries
    #: the same states; excluded from equality so reports stay
    #: comparable to hand-built expected values.
    population: Optional[Dict[str, Dict[str, Any]]] = field(default=None, compare=False)

    @property
    def corrected_information(self) -> float:
        """Miller-Madow bias-corrected estimate (still capped by log2 N)."""
        return max(0.0, self.information_estimate - self.miller_madow_correction)

    @property
    def saturated(self) -> bool:
        """True when the sample size caps the measurable entropy."""
        return self.true_input_entropy > math.log2(max(2, self.samples))


def _transcript_population(
    transcript_counts: Iterable[Tuple[str, int]],
) -> Dict[str, Dict[str, Any]]:
    """Population sketches from (transcript string, count) pairs."""
    from repro.obs.sketches import QuantileSketch, TopKSketch

    bits = QuantileSketch()
    transcripts = TopKSketch()
    for transcript, count in transcript_counts:
        bits.update(float(len(transcript)), count=count)
        transcripts.update(transcript, count=count)
    return {
        "transcript_bits": bits.to_dict(),
        "transcripts": transcripts.to_dict(),
    }


def _transcript_counts_from_pairs(
    keyed_counts: Iterable[Tuple[Tuple[Any, str], int]],
) -> List[Tuple[str, int]]:
    """Aggregate ((input, transcript), count) items per transcript, in
    sorted transcript order."""
    per_transcript: Dict[str, int] = {}
    for (_x, transcript), count in keyed_counts:
        per_transcript[transcript] = per_transcript.get(transcript, 0) + count
    return sorted(per_transcript.items())


def _report_from_joint(
    n: int,
    samples: int,
    joint: Dict[Tuple[Any, Any], float],
    errors: int,
    population: Optional[Dict[str, Dict[str, Any]]] = None,
) -> SampledInformationReport:
    """Assemble the report from an empirical joint.

    The joint keys inputs by their canonical string form, which keeps
    shard results JSON-serializable; every derived quantity -- entropies,
    mutual information, distinct counts, Miller-Madow bias -- is
    invariant under that injective relabeling.
    """
    info = mutual_information(joint)
    distinct_x = len(marginal_x(joint))
    distinct_y = len(marginal_y(joint))
    # Miller-Madow bias of I ~ bias(H(X)) + bias(H(Y)) - bias(H(X, Y))
    bias = (
        (distinct_x - 1) + (distinct_y - 1) - (len(joint) - 1)
    ) / (2.0 * samples * math.log(2))
    return SampledInformationReport(
        n=n,
        samples=samples,
        information_estimate=info,
        miller_madow_correction=bias,
        input_entropy_estimate=entropy(marginal_x(joint)),
        true_input_entropy=math.log2(bell_number(n)),
        distinct_inputs_seen=distinct_x,
        distinct_transcripts_seen=distinct_y,
        error_rate_estimate=errors / samples,
        population=population,
    )


def merge_counts(a: Dict[Any, int], b: Dict[Any, int]) -> Dict[Any, int]:
    """Key-wise integer sum of two count dictionaries (``a`` is mutated)."""
    for key, count in b.items():
        a[key] = a.get(key, 0) + count
    return a


def estimate_protocol_information(
    protocol: TwoPartyProtocol,
    n: int,
    samples: int,
    rng: random.Random,
    budget: Optional[Budget] = None,
    workers: int = 1,
    shard_cache=None,
) -> SampledInformationReport:
    """Sample the Theorem 4.5 hard distribution and estimate I(P_A; Pi).

    The parent pre-draws **all** N inputs from ``rng`` (so the caller's
    RNG always ends in the same state) and runs them through
    :func:`fold_runs`, so the report is bit-identical for every worker
    count.

    ``budget`` -- a :class:`repro.resilience.Budget` whose units fill the
    shards in shard order, one unit per sample; exhaustion raises
    :class:`~repro.errors.BudgetExceededError` carrying a partial report
    over the first samples (``None`` below 2 samples).

    ``shard_cache`` (a :class:`repro.cache.ShardCache` bound to the
    request's ``(n, samples, seed, eps)``) memoizes completed shards:
    every shard is a pure function of its slice of the seeded draw, so
    re-running an interrupted or budget-exhausted estimate with the same
    cache computes only the missing shards.

    When a :class:`repro.obs.SpanRecorder` is installed the estimator
    emits a ``sampling.estimate`` span with ``sampling.draw`` (input
    draws and protocol runs) and ``sampling.reduce`` (plug-in
    estimation) children.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with span("sampling.estimate", n=n, samples=samples):
        with span("sampling.draw", samples=samples):
            # Drawn as RGS tuples: a pooled shard pickles ~5x fewer bytes
            # than it would as SetPartition objects.
            inputs = [random_rgs(n, rng) for _ in range(samples)]
            counts, errors, done, mapped = fold_runs(
                protocol, n, inputs, budget, workers, shard_cache
            )

        if mapped.exhausted:
            partial = (
                _report_from_joint(n, done, joint_of(counts, done), errors)
                if done >= 2 else None
            )
            message = mapped.budget_message or f"budget exhausted during sampling (n={n})"
            raise BudgetExceededError(message, partial=partial)

        with span("sampling.reduce"):
            population = _transcript_population(
                _transcript_counts_from_pairs(counts.items())
            )
            return _report_from_joint(
                n, samples, joint_of(counts, samples), errors, population
            )


def joint_of(counts: Dict[Tuple[str, str], int], total: int) -> Dict[Tuple[str, str], float]:
    """The joint ``count / total``, in sorted key order so that every
    entropy's float sum is independent of the shard layout."""
    return {pair: c / total for pair, c in sorted(counts.items())}


def fold_runs(
    protocol: TwoPartyProtocol,
    n: int,
    inputs: List[Tuple[int, ...]],
    budget: Optional[Budget] = None,
    workers: int = 1,
    shard_cache=None,
    memo: bool = True,
) -> Tuple[Dict[Tuple[str, str], int], int, int, MappedUnits]:
    """Run ``protocol`` on each input (an RGS of P_A; P_B the finest
    partition) over a shard plan of :data:`SAMPLING_SHARD_UNITS` that
    does not depend on ``workers``, through
    :func:`repro.parallel.shard.map_units`, and merge the shards.

    Returns ``(counts, errors, done, mapped)``: the ``(repr(P_A),
    transcript) -> count`` joint counts, the inputs on which Alice's or
    Bob's output is not P_A, the inputs run, and the map's
    :class:`~repro.parallel.shard.MappedUnits`. The exact evaluation
    passes every RGS once with ``memo=False``: a memo entry could serve
    only a later call.
    """
    shards = ShardPlan.for_units(len(inputs), SAMPLING_SHARD_UNITS).shards()
    mapped = map_units(
        _sampling_shard_worker,
        [({"start": s.start, "stop": s.stop}, s.size) for s in shards],
        lambda i, sb: (
            protocol, n, inputs[shards[i].start:shards[i].stop], shards[i].start, sb,
            memo,
        ),
        lambda result: result.get("done"),
        cache=shard_cache,
        budget=budget,
        workers=workers,
    )
    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    for result in mapped.results:
        merge_counts(counts, {(str(x), str(y)): int(c) for x, y, c in result["counts"]})
        errors += int(result["errors"])
        done += int(result["done"])
    return counts, errors, done, mapped


def _sampling_shard_worker(payload: Tuple) -> Dict[str, object]:
    """Run the protocol on one contiguous slice of the inputs.

    ``payload`` is ``(protocol, n, inputs, start, shard_budget, memo)``,
    with each input as the RGS of Alice's partition. With ``memo``, an
    input this process has already run under the same protocol is read
    from the run memo instead of run again; it still counts as one
    sample and one budget tick, so a repeated input weighs the joint
    exactly as a fresh run.
    Module-level (picklable); returns JSON-ready sorted count triples so
    the pooled path ships plain lists across the pipe. The budget is
    ticked once per sample; a budget that trips on the slice's final
    sample still reports a completed slice.
    """
    protocol, n, inputs, start, shard_budget, memo = payload
    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    try:
        budget = None if shard_budget is None else shard_budget.to_budget()
    except BudgetExceededError:
        return {"counts": [], "errors": 0, "done": 0}
    pb = SetPartition.finest(n)
    runs = _RUNS.setdefault(
        (type(protocol), tuple(sorted(vars(protocol).items())), n), {}
    ) if memo else {}
    with span("sampling.scan_shard", start=start, size=len(inputs)):
        try:
            for rgs in inputs:
                outcome = runs.get(rgs)
                if outcome is None:
                    pa = SetPartition.from_rgs(rgs)
                    result = protocol.run(pa, pb)
                    outcome = runs[rgs] = (
                        (repr(pa), result.transcript_string()),
                        result.bob_output != pa or result.alice_output != pa,
                    )
                key, wrong = outcome
                counts[key] = counts.get(key, 0) + 1
                if wrong:
                    errors += 1
                done += 1
                if budget is not None:
                    budget.tick()
        except BudgetExceededError:
            pass
    return {
        "counts": [[x, y, c] for (x, y), c in sorted(counts.items())],
        "errors": errors,
        "done": done,
    }
