"""Sampled mutual-information estimation for large ground sets.

The exact Theorem 4.5 evaluation enumerates all B_n partitions, which is
fine up to n ≈ 8 (B_8 = 4140) and hopeless much beyond. This module adds
the sampled counterpart: draw P_A uniformly (the exact-uniform RGS
sampler), run the protocol, and estimate the information quantities with
the plug-in (maximum-likelihood) estimator over the empirical joint.

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
from repro.parallel.executor import ParallelExecutor
from repro.parallel.merge import merge_counts
from repro.parallel.shard import ShardPlan, split_budget
from repro.partitions.bell import bell_number
from repro.partitions.enumeration import random_rgs
from repro.partitions.set_partition import SetPartition
from repro.resilience.budget import Budget
from repro.twoparty.protocol import TwoPartyProtocol

#: Samples per shard: well under 1 s of protocol runs at n = 7, which
#: bounds the work a kill can lose (completed shards are cached).
SAMPLING_SHARD_UNITS = 512


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
    RNG always ends in the same state), cuts them into a fixed
    :class:`repro.parallel.ShardPlan` of :data:`SAMPLING_SHARD_UNITS`
    samples that does not depend on ``workers``, runs the protocol over
    each shard (in-process for ``workers=1``, over a process pool
    otherwise), and merges the per-shard joint counts key-wise. The
    joint is summed in sorted key order, so the report is bit-identical
    for every worker count.

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
            shards = ShardPlan.for_units(samples, SAMPLING_SHARD_UNITS).shards()
            results: List[Dict[str, Any]] = [{}] * len(shards)
            pending = []
            for shard in shards:
                hit = None
                if shard_cache is not None:
                    hit = shard_cache.get_item(_shard_item(shard))
                if hit is not None and hit.get("done") == shard.size:
                    results[shard.index] = hit
                else:
                    pending.append(shard)
            budgets = split_budget(budget, [shard.size for shard in pending])
            payloads = [
                (protocol, n, inputs[shard.start:shard.stop], shard.start, sb)
                for shard, sb in zip(pending, budgets)
            ]

            def _store(index: int, result: Dict[str, Any]) -> None:
                if shard_cache is not None and not result["exhausted"]:
                    shard_cache.put_item(_shard_item(pending[index]), result)

            fresh = ParallelExecutor(workers=workers).map(
                _sampling_shard_worker, payloads, on_result=_store
            )
            for shard, result in zip(pending, fresh):
                results[shard.index] = result

        counts: Dict[Tuple[str, str], int] = {}
        errors = 0
        done = 0
        for result in results:
            merge_counts(
                counts, {(str(x), str(y)): int(c) for x, y, c in result["counts"]}
            )
            errors += int(result["errors"])
            done += int(result["done"])

        def _joint(total: int) -> Dict[Tuple[str, str], float]:
            # Sorted key order makes the float summation order -- and
            # hence the report -- independent of the shard layout.
            return {pair: c / total for pair, c in sorted(counts.items())}

        ran = sum(int(result["done"]) for result in fresh)
        exhausted = any(result["exhausted"] for result in fresh)
        budget_message = f"budget exhausted during sampling (n={n})"
        if budget is not None and ran:
            try:
                # Tick the parent by the consumed units so "budget == exact
                # sample count" raises, exactly as a per-sample loop does.
                budget.tick(units=ran)
            except BudgetExceededError as exc:
                budget_message = str(exc)
                exhausted = True
        if exhausted:
            partial = (
                _report_from_joint(n, done, _joint(done), errors) if done >= 2 else None
            )
            raise BudgetExceededError(budget_message, partial=partial)

        with span("sampling.reduce"):
            population = _transcript_population(
                _transcript_counts_from_pairs(counts.items())
            )
            return _report_from_joint(n, samples, _joint(samples), errors, population)


def _shard_item(shard) -> Dict[str, int]:
    """The shard-cache item naming one slice of the drawn inputs."""
    return {"start": shard.start, "stop": shard.stop}


def _sampling_shard_worker(payload: Tuple) -> Dict[str, object]:
    """Run the protocol on one contiguous slice of the drawn inputs.

    ``payload`` is ``(protocol, n, inputs, start, shard_budget)``, with
    each input as the RGS of Alice's partition.
    Module-level (picklable); returns JSON-ready sorted count triples so
    the pooled path ships plain lists across the pipe. The budget is
    ticked once per sample; a budget that trips on the slice's final
    sample still reports a completed slice.
    """
    protocol, n, inputs, start, shard_budget = payload
    counts: Dict[Tuple[str, str], int] = {}
    errors = 0
    done = 0
    exhausted = False
    try:
        budget = None if shard_budget is None else shard_budget.to_budget()
    except BudgetExceededError:
        return {"counts": [], "errors": 0, "done": 0, "exhausted": bool(inputs)}
    pb = SetPartition.finest(n)
    with span("sampling.scan_shard", start=start, size=len(inputs)):
        try:
            for rgs in inputs:
                pa = SetPartition.from_rgs(rgs)
                result = protocol.run(pa, pb)
                key = (repr(pa), result.transcript_string())
                counts[key] = counts.get(key, 0) + 1
                if result.bob_output != pa:
                    errors += 1
                done += 1
                if budget is not None:
                    budget.tick()
        except BudgetExceededError:
            exhausted = done < len(inputs)
    return {
        "counts": [[x, y, c] for (x, y), c in sorted(counts.items())],
        "errors": errors,
        "done": done,
        "exhausted": exhausted,
    }
