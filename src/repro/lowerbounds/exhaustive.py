"""Exhaustive universal lower bounds over a restricted algorithm class.

Theorems 3.1/3.5 quantify over *all* t-round algorithms; the engines in
:mod:`repro.lowerbounds.kt0_constant_error` measure the forced error of
any *given* algorithm. This module closes the remaining gap at miniature
scale: it enumerates an entire (restricted but natural) class of
algorithms and minimizes the forced error over the class, producing a
statement with a real universal quantifier:

    every ID-oblivious 1-round KT-0 algorithm has forced error >= c
    on the uniform V1/V2 distribution at n = 6 (or 7),

where *ID-oblivious* means the single broadcast character of a vertex is a
function of its ID alone (the natural first-round behavior: at time 0 a
KT-0 vertex knows little else -- its input-port set is the only other
signal, and on 2-regular instances with canonical wirings it varies just
as predictably). The output rule is left fully adversarial: for each
broadcast assignment the engine grants the *best possible* output rule
subject only to the indistinguishability constraints of Lemma 3.4, so the
resulting minimum is a true lower bound for the class.

The computation: for each one-cycle cover, the disconnecting independent
directed pairs are precomputed once (they do not depend on the
algorithm). A crossing of two independent directed edges splits the
Hamiltonian cycle exactly when both edges point the same way around it,
so the table is read off the cycle's orientation;
:func:`disconnecting_pairs` builds every crossed cover and is kept as
the reference. A broadcast assignment f activates the pairs whose head
IDs and tail IDs agree under f, and the optimal output rule pays, per
one-cycle instance, the cheaper of (its own YES-side mass) and (the mass
of its fooled crossed NO-instances).

That condition compares broadcast labels only for equality, so an
assignment's score depends only on the set partition it induces on the
vertices: 365 classes at n = 7 against 2,187 assignments. The scan
still visits every assignment in order, but scores each class once per
process (:func:`_class_score`, keyed by the assignment's restricted
growth string) and counts a class's fooled pairs for all covers at once
with bit lanes of one integer. :func:`_forced_error_and_fooled` is the
per-assignment reference the tests compare it with.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BudgetExceededError
from repro.indist.graph_builder import cross_cover
from repro.instances.enumeration import CycleCover, enumerate_one_cycle_covers
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.sketches import MomentsSketch, QuantileSketch, merge_population
from repro.obs.spans import span
from repro.parallel.shard import ShardPlan, map_units
from repro.resilience.budget import Budget

#: Assignments per shard: the unit the shard cache stores and a resume skips,
#: which bounds the work a kill can lose (completed shards are cached).
EXHAUSTIVE_SHARD_UNITS = 256

#: A directed pair of edges eligible for a disconnecting crossing.
DirectedPair = Tuple[Tuple[int, int], Tuple[int, int]]


def disconnecting_pairs(cover: CycleCover) -> List[DirectedPair]:
    """All independent directed pairs whose crossing splits the cycle."""
    directed = []
    for u, v in sorted(cover.edges):
        directed.append((u, v))
        directed.append((v, u))
    out: List[DirectedPair] = []
    for e1, e2 in itertools.combinations(directed, 2):
        crossed = cross_cover(cover, e1, e2)
        if crossed is not None and crossed.num_cycles == 2:
            out.append((e1, e2))
    return out


def _splitting_pairs(cover: CycleCover) -> List[DirectedPair]:
    """:func:`disconnecting_pairs` for a one-cycle cover, read off the
    cycle's orientation instead of building each crossed cover.

    Number the cycle's edges by position: edge i joins cycle[i] and
    cycle[i+1]. Crossing v1->u1 with v2->u2 removes both edges and adds
    v1-u2 and v2-u1. When both directed edges point the same way around
    the cycle, the arcs between them each close into a cycle; when they
    point opposite ways, the new edges rejoin the arcs into one cycle.
    For two same-way edges at positions i and j, the endpoints are
    distinct iff they are not adjacent, and a new edge is already
    present iff they are two apart. So a pair disconnects iff its
    orientations agree and its positions are at least 3 apart around
    the cycle. Pairs come out in the same ``combinations`` order.
    """
    (cycle,) = cover.cycles
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    directed = []
    for u, v in sorted(cover.edges):
        forward = (pos[u] + 1) % n == pos[v]
        i = pos[u] if forward else pos[v]
        directed.append(((u, v), forward, i))
        directed.append(((v, u), not forward, i))
    out: List[DirectedPair] = []
    for (e1, f1, i1), (e2, f2, i2) in itertools.combinations(directed, 2):
        if f1 == f2 and 3 <= (i1 - i2) % n <= n - 3:
            # Reuse the edge tuples: fresh ones per pair cost ~0.7 MB of
            # peak RSS at n = 7, where the table holds 10,080 edges.
            out.append((e1, e2))
    return out


@lru_cache(maxsize=None)
def _precompute_pairs_cached(
    n: int,
) -> Tuple[Tuple[CycleCover, Tuple[DirectedPair, ...]], ...]:
    """The (cover, disconnecting pairs) table for size ``n``, computed once.

    Each cover's pairs come from :func:`_splitting_pairs`, which equals
    :func:`disconnecting_pairs` (the tests keep the latter as the
    oracle). The body -- and therefore the
    ``exhaustive.precompute_pairs`` span -- only runs on a cache miss:
    repeated universal-bound calls at the same ``n`` skip the
    precompute entirely.
    """
    with span("exhaustive.precompute_pairs"):
        return tuple(
            (cover, tuple(_splitting_pairs(cover)))
            for cover in enumerate_one_cycle_covers(n)
        )


def covers_and_pairs_for(
    n: int, metrics: Optional[MetricsRegistry] = None
) -> Tuple[Tuple[CycleCover, Tuple[DirectedPair, ...]], ...]:
    """Memoized pair table; counts cache hits on the metrics registry.

    Every repeated call at the same ``n`` increments the
    ``exhaustive.pair_cache_hits`` counter (when a registry is given or
    installed process-wide) and costs one dict lookup instead of the
    full :func:`disconnecting_pairs` enumeration.
    """
    if metrics is None:
        metrics = get_registry()
    hits_before = _precompute_pairs_cached.cache_info().hits
    table = _precompute_pairs_cached(n)
    if metrics is not None and _precompute_pairs_cached.cache_info().hits > hits_before:
        metrics.counter("exhaustive.pair_cache_hits").inc()
    return table


#: Number of set bits in each byte value, for ``bytes.translate``.
_POPCOUNT = bytes(bin(b).count("1") for b in range(256))

#: Per size n, the (error, fooled) of every class scored so far in this
#: process, keyed by RGS. Pool workers fork with the parent's copy.
_CLASS_SCORES: Dict[int, Dict[Tuple[int, ...], Tuple[float, int]]] = {}


def clear_pair_cache() -> None:
    """Drop the memoized pair tables and class scores (tests that assert
    the precompute span)."""
    _precompute_pairs_cached.cache_clear()
    _lane_masks.cache_clear()
    _CLASS_SCORES.clear()


@lru_cache(maxsize=None)
def _lane_masks(n: int) -> Tuple[int, int, Tuple[Tuple[int, int, int, int], ...]]:
    """The size-``n`` pair table as bit masks, one lane of bytes per cover.

    Pair j of cover c is bit ``8 * lane * c + j``, where ``lane`` is the
    byte width of the longest pair list. For each vertex pair x < y, the
    v-mask holds the pairs with {v1, v2} = {x, y} and the u-mask those
    with {u1, u2} = {x, y}. Returns ``(lane, covers, ((x, y, v-mask,
    u-mask), ...))``.
    """
    table = _precompute_pairs_cached(n)
    lane = max(1, -(-max(len(pairs) for _cover, pairs in table) // 8))
    if 8 * lane > 255:
        # A lane's count must fit the byte that _class_score sums it into.
        raise ValueError(f"pair lists too long to count in byte lanes (n={n})")
    size = lane * len(table)
    v_bits: Dict[Tuple[int, int], bytearray] = {}
    u_bits: Dict[Tuple[int, int], bytearray] = {}
    for c, (_cover, pairs) in enumerate(table):
        for bit, ((v1, u1), (v2, u2)) in enumerate(pairs, 8 * lane * c):
            for bits, a, b in ((v_bits, v1, v2), (u_bits, u1, u2)):
                key = (a, b) if a < b else (b, a)
                buf = bits.get(key)
                if buf is None:
                    buf = bits[key] = bytearray(size)
                buf[bit >> 3] |= 1 << (bit & 7)
    empty = bytes(size)
    masks = tuple(
        (x, y, int.from_bytes(v_bits.get((x, y), empty), "little"),
         int.from_bytes(u_bits.get((x, y), empty), "little"))
        for x, y in itertools.combinations(range(n), 2)
    )
    return lane, len(table), masks


def _class_score(n: int, rgs: Sequence[int]) -> Tuple[float, int]:
    """(forced error, total fooled pairs) of every assignment inducing ``rgs``.

    A pair is fooled when its v-sides and its u-sides each share a block,
    so a class's fooled bits are the OR of the v-masks of its same-block
    vertex pairs AND the OR of their u-masks. Popcounting each byte and
    folding ``lane`` bytes together counts every cover at once; the
    error then adds one term per cover, in cover order, with the
    expression of :func:`_forced_error_and_fooled`, so the two agree
    bit for bit.
    """
    lane, covers, masks = _lane_masks(n)
    v = u = 0
    for x, y, v_mask, u_mask in masks:
        if rgs[x] == rgs[y]:
            v |= v_mask
            u |= u_mask
    size = lane * covers
    popcounts = int.from_bytes(
        (v & u).to_bytes(size, "little").translate(_POPCOUNT), "little"
    )
    lanes = popcounts
    for k in range(1, lane):
        lanes += popcounts >> (8 * k)
    counts = lanes.to_bytes(size, "little")[::lane]
    total_fooled = sum(counts)
    per_yes_instance = 0.5 / covers
    terms = [
        min(per_yes_instance, 0.5 * count / total_fooled if total_fooled else 0.0)
        for count in range(8 * lane + 1)
    ]
    # reduce, not sum(): sum() of floats is compensated on Python >= 3.12.
    return reduce(add, map(terms.__getitem__, counts), 0.0), total_fooled


def assignment_at(alphabet: Sequence[str], n: int, index: int) -> Tuple[str, ...]:
    """The ``index``-th assignment in ``itertools.product`` order.

    ``itertools.product(alphabet, repeat=n)`` enumerates base-``|alphabet|``
    counters most-significant-digit first; this inverts that bijection so
    sharded scans can report winners by global index alone.
    """
    base = len(alphabet)
    out = [alphabet[0]] * n
    for j in range(n - 1, -1, -1):
        index, digit = divmod(index, base)
        out[j] = alphabet[digit]
    return tuple(out)


def _iter_assignments(
    alphabet: Sequence[str], n: int, start: int, stop: int
) -> Iterator[Tuple[str, ...]]:
    """Assignments for global indices ``[start, stop)``, odometer-style.

    Equivalent to ``islice(product(alphabet, repeat=n), start, stop)``
    but O(n) to position at ``start`` instead of O(start), which is what
    lets a shard (or a resume) begin mid-space without replaying the
    prefix.
    """
    if start >= stop:
        return
    base = len(alphabet)
    digits = [0] * n
    index = start
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, base)
    for _ in range(stop - start):
        yield tuple(alphabet[d] for d in digits)
        for j in range(n - 1, -1, -1):
            digits[j] += 1
            if digits[j] < base:
                break
            digits[j] = 0


@dataclass(frozen=True)
class UniversalBoundReport:
    """Result of the exhaustive minimization.

    ``population`` (opt-in, ``population=True`` on the search) holds
    mergeable sketch states summarizing the *whole scanned class*, not
    just the winner: a :class:`repro.obs.sketches.QuantileSketch` over
    every assignment's forced error (``"forced_error"``) and a
    :class:`repro.obs.sketches.MomentsSketch` over its fooled-pair total
    (``"fooled"``). The states are pure functions of the scanned
    assignment multiset, so serial and sharded searches produce
    byte-identical populations. Excluded from report equality
    (``compare=False``) so the long-standing serial == sharded report
    assertions are unaffected; compare populations explicitly.
    """

    n: int
    class_size: int
    minimum_forced_error: float
    worst_assignment: Tuple[str, ...]  # the broadcast character per vertex ID
    population: Optional[Dict[str, Dict[str, object]]] = field(
        default=None, compare=False
    )

    @property
    def is_constant(self) -> bool:
        return self.minimum_forced_error >= 0.1


def forced_error_of_assignment(
    n: int,
    assignment: Sequence[str],
    covers_and_pairs: List[Tuple[CycleCover, List[DirectedPair]]],
) -> float:
    """Forced error of the best output rule for one broadcast assignment."""
    return _forced_error_and_fooled(n, assignment, covers_and_pairs)[0]


def _forced_error_and_fooled(
    n: int,
    assignment: Sequence[str],
    covers_and_pairs: List[Tuple[CycleCover, List[DirectedPair]]],
) -> Tuple[float, int]:
    """(forced error, total fooled pairs) for one broadcast assignment.

    The fooled-pair total falls out of the error computation for free;
    keeping it visible lets the instrumented search count fooled
    instances without a second pass over the pair lists.
    """
    v1_count = len(covers_and_pairs)
    fooled_counts = []
    for _cover, pairs in covers_and_pairs:
        count = 0
        for (v1, u1), (v2, u2) in pairs:
            if assignment[v1] == assignment[v2] and assignment[u1] == assignment[u2]:
                count += 1
        fooled_counts.append(count)
    total_fooled = sum(fooled_counts)
    per_yes_instance = 0.5 / v1_count
    error = 0.0
    for count in fooled_counts:
        if total_fooled:
            yes_cost = 0.5 * count / total_fooled  # answer YES: err on fooled
        else:
            yes_cost = 0.0
        error += min(per_yes_instance, yes_cost)
    return error, total_fooled


def _new_population() -> Tuple[QuantileSketch, MomentsSketch]:
    """Fresh (forced-error quantiles, fooled-count moments) sketch pair."""
    return QuantileSketch(), MomentsSketch()


def _population_state(
    err_sketch: QuantileSketch, fooled_sketch: MomentsSketch
) -> Dict[str, Dict[str, object]]:
    return {
        "forced_error": err_sketch.to_dict(),
        "fooled": fooled_sketch.to_dict(),
    }


def merge_min_keyed(
    a: Optional[Tuple[float, int]], b: Optional[Tuple[float, int]]
) -> Optional[Tuple[float, int]]:
    """Min of two shard bests ``(error, index)``; ``None`` = no candidate.

    Comparing the tuples directly makes the earliest index win ties,
    matching the serial loop's first-strict-improvement rule regardless
    of the order shards complete in.
    """
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def universal_bound_id_oblivious(
    n: int,
    alphabet: Sequence[str] = ("", "0", "1"),
    metrics: Optional[MetricsRegistry] = None,
    budget: Optional[Budget] = None,
    workers: int = 1,
    population: bool = False,
    shard_cache=None,
) -> UniversalBoundReport:
    """Minimize forced error over every ID-oblivious 1-round algorithm.

    The class has |alphabet|^n members; n = 6 gives 729, n = 7 gives 2187
    -- all enumerated. The returned minimum is the universal lower bound
    for the class.

    The enumeration runs over a fixed :class:`repro.parallel.ShardPlan`
    of :data:`EXHAUSTIVE_SHARD_UNITS`-assignment shards that does not
    depend on ``workers``: the shards are scanned in-process, and with
    ``workers > 1`` the ones left once the in-process scan has run for
    the executor's threshold fan out over a process pool. Every shard
    reports ``(error, global_index)`` and the fold is
    :func:`merge_min_keyed` (lowest index wins ties), so the report --
    minimum, winning assignment, tie-breaks -- is a pure function of
    ``(n, alphabet)``.
    Each process scores an induced set partition once
    (:func:`_class_score`); pool workers fork with the parent's pair
    table and the class scores its in-process shards filled.

    When ``metrics`` is given (or a registry is installed process-wide
    via :func:`repro.obs.use_registry`), the search records enumeration
    throughput (``exhaustive.assignments_enumerated`` and the
    ``exhaustive.instances_per_sec`` gauge) and fooled-instance counts.

    ``budget`` -- a :class:`repro.resilience.Budget` whose units fill the
    shards in shard order, one unit per assignment, so ``max_units=K``
    scans exactly the first K assignments for every worker count.
    Exhaustion raises :class:`~repro.errors.BudgetExceededError` carrying
    the best-so-far partial :class:`UniversalBoundReport`; a budget of
    exactly the class size raises, one more completes.

    ``shard_cache`` (a :class:`repro.cache.ShardCache` bound to this
    request's normalized params) memoizes completed shards through
    :func:`repro.parallel.shard.map_units`: re-running a stopped or
    interrupted search with the same cache, at any ``workers``, computes
    only the missing shards and ticks the budget only for them.

    When a :class:`repro.obs.SpanRecorder` is installed (via
    :func:`repro.obs.use_recorder`), the search emits an
    ``exhaustive.search`` span with ``exhaustive.precompute_pairs`` and
    ``exhaustive.enumerate`` children.

    ``population=True`` additionally accumulates mergeable sketches over
    the whole scanned class -- forced-error quantiles and fooled-count
    moments, exposed as :attr:`UniversalBoundReport.population` -- with
    byte-identical states for every ``workers`` choice (the sketches are
    pure functions of the scanned assignment multiset).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if metrics is None:
        metrics = get_registry()
    alphabet = tuple(alphabet)
    total = len(alphabet) ** n
    with span("exhaustive.search", n=n, class_size=total):
        table = covers_and_pairs_for(n, metrics)
        start_time = time.perf_counter()
        shards = ShardPlan.for_units(total, EXHAUSTIVE_SHARD_UNITS).shards()
        mapped = map_units(
            _exhaustive_shard_worker,
            [({"start": s.start, "stop": s.stop, "seed": s.seed}, s.size) for s in shards],
            lambda i, sb: (n, alphabet, shards[i].start, shards[i].stop, sb, population),
            lambda result: result.get("enumerated"),
            cache=shard_cache,
            budget=budget,
            workers=workers,
            metrics=metrics,
            enclosing_span="exhaustive.enumerate",
        )
        cached_shards = mapped.fresh.count(False)
        if cached_shards and metrics is not None:
            metrics.counter("exhaustive.shards_cached").inc(cached_shards)

    results, ran = mapped.results, mapped.consumed
    best = reduce(
        merge_min_keyed,
        [None if r["best"] is None else (float(r["best"][0]), int(r["best"][1]))
         for r in results],
        None,
    )
    report_population = None
    if population:
        for result in results:
            report_population = merge_population(
                report_population, result.get("population")
            )
        if report_population is None:
            report_population = _population_state(*_new_population())
    report = UniversalBoundReport(
        n=n,
        class_size=total,
        minimum_forced_error=0.0 if best is None else best[0],
        worst_assignment=() if best is None else assignment_at(alphabet, n, best[1]),
        population=report_population,
    )

    if mapped.exhausted:
        message = mapped.budget_message or f"budget exhausted during exhaustive search (n={n})"
        raise BudgetExceededError(message, partial=report)

    if metrics is not None:
        elapsed = time.perf_counter() - start_time
        metrics.counter("exhaustive.searches").inc()
        metrics.counter("exhaustive.covers_enumerated").inc(len(table))
        metrics.counter("exhaustive.disconnecting_pairs").inc(
            sum(len(pairs) for _cover, pairs in table)
        )
        metrics.counter("exhaustive.assignments_enumerated").inc(ran)
        metrics.counter("exhaustive.fooled_pairs").inc(
            sum(int(r["fooled"]) for r in results)
        )
        metrics.histogram("exhaustive.search_seconds").observe(elapsed)
        metrics.gauge("exhaustive.instances_per_sec").set(
            ran / elapsed if elapsed > 0 else 0.0
        )
        if budget is not None:
            remaining = budget.remaining_units()
            if remaining is not None:
                metrics.gauge("exhaustive.budget_remaining").set(remaining)
    return report


# ----------------------------------------------------------------------
# the shard scan
# ----------------------------------------------------------------------
def _scan_shard_python(
    n: int,
    alphabet: Sequence[str],
    start: int,
    stop: int,
    budget: Optional[Budget],
    sketches: Optional[Tuple[QuantileSketch, MomentsSketch]] = None,
) -> Tuple[Optional[Tuple[float, int]], int, int, int]:
    """Scan global indices ``[start, stop)``.

    Returns ``(best, next_index, enumerated, fooled_total)`` with the
    strict-first tie-break and per-assignment budget ticks. A budget
    that trips stops the scan at ``next_index``; one that raises on the
    shard's very last assignment still yields a completed shard. Each
    assignment's score is looked up by its RGS in the process's class
    memo and computed on a miss.

    ``sketches`` (an ``(error QuantileSketch, fooled MomentsSketch)``
    pair) is updated in place with one observation per *enumerated*
    assignment, so population states do not depend on the shard layout.
    """
    scores = _CLASS_SCORES.setdefault(n, {})
    best: Optional[Tuple[float, int]] = None
    pos = start
    enumerated = 0
    fooled_total = 0
    try:
        for assignment in _iter_assignments(alphabet, n, start, stop):
            first: Dict[str, int] = {}
            rgs = tuple([first.setdefault(label, len(first)) for label in assignment])
            score = scores.get(rgs)
            if score is None:
                score = scores[rgs] = _class_score(n, rgs)
            err, fooled = score
            pos += 1
            enumerated += 1
            fooled_total += fooled
            if sketches is not None:
                sketches[0].update(err)
                sketches[1].update(float(fooled))
            if best is None or err < best[0]:
                best = (err, pos - 1)
            if budget is not None:
                budget.tick()
    except BudgetExceededError:
        pass
    return best, pos, enumerated, fooled_total


def _exhaustive_shard_worker(payload: Tuple) -> Dict[str, object]:
    """Score one shard of the assignment space (module-level: picklable).

    ``payload`` is ``(n, alphabet, start, stop, shard_budget, collect)``;
    the pair table comes from the process cache, which a forked worker
    inherits. Returns a JSON-ready dict so the pooled path ships nothing
    fancier than lists and ints across the pipe; with ``collect`` the
    dict additionally carries the shard's serialized population sketch
    states under ``"population"``.
    """
    n, alphabet, start, stop, shard_budget, collect = payload
    sketches: Optional[Tuple[QuantileSketch, MomentsSketch]] = None
    if collect:
        sketches = _new_population()
    try:
        budget = None if shard_budget is None else shard_budget.to_budget()
    except BudgetExceededError:
        best, pos, enumerated, fooled = None, start, 0, 0
    else:
        with span("exhaustive.scan_python", start=start, stop=stop):
            best, pos, enumerated, fooled = _scan_shard_python(
                n, alphabet, start, stop, budget, sketches
            )
    return {
        "best": None if best is None else [float(best[0]), int(best[1])],
        "next_index": int(pos),
        "enumerated": int(enumerated),
        "fooled": int(fooled),
        "population": None if sketches is None else _population_state(*sketches),
    }
