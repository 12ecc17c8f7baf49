"""The run-event stream: one record per run event, read by every sink.

:meth:`repro.core.simulator.Simulator.run` builds a :class:`RunStart`,
one :class:`RoundEnd` per round and a :class:`RunEnd`, and hands each to
the observers :func:`run_observers` resolved. The six sinks are the
observers below. Opening hooks (``run_start``, ``phase``) go in tuple
order and closing hooks (``round_end``, ``run_end``, ``run_abort``) in
reverse, so observers nest like context managers: the span observer,
first, brackets every other sink; the cost observer, last, fills
:attr:`RunEnd.cost_summary` before the trace observer writes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.costs.ledger import get_ledger, run_cost_summary
from repro.obs.metrics import get_registry
from repro.obs.spans import get_recorder
from repro.obs.stream import get_bus

__all__ = ["RoundEnd", "RunEnd", "RunObserver", "RunStart", "run_observers"]


@dataclass
class RunStart:
    """The run's shape. ``faults`` is the fault plan when faults are
    injected, ``network`` the network plan when delivery is perturbed
    (``None`` otherwise)."""

    n: int
    kt: int
    bandwidth: int
    rounds_budget: int
    faults: Any
    network: Any


@dataclass
class RoundEnd:
    """One executed round. The event lists hold this round's events
    only; the RNG digests are post-round states, computed on read."""

    t: int
    messages: Tuple[str, ...]
    transcripts: Sequence[Any]
    bits: int
    wall_seconds: float
    fault_events: Sequence[Any]
    net_events: Sequence[Any]
    all_finished: bool
    net_run: Any = field(repr=False)

    @property
    def fault_rng(self) -> Optional[str]:
        fault_run = self.net_run.fault_run if self.net_run is not None else None
        return fault_run.rng_digest() if fault_run is not None else None

    @property
    def net_rng(self) -> Optional[str]:
        return self.net_run.rng_digest() if self.net_run is not None else None


@dataclass
class RunEnd:
    """The closed run. ``dropped`` holds the copies still in flight at
    the end, recorded as ``dropped`` delivery events after the last
    round; ``cost_summary`` is filled by the cost observer."""

    rounds_executed: int
    all_finished: bool
    total_bits: int
    transcripts: Sequence[Any]
    dropped: Sequence[Any]
    faults_injected: int
    crashed_vertices: Tuple[int, ...]
    failed_vertices: Tuple[int, ...]
    delivery_anomalies: int
    cost_summary: Optional[Dict[str, Any]] = None


def _ending(end: RunEnd) -> Dict[str, Any]:
    """The fields the trace's ``run_end`` and the bus's share."""
    return {
        "rounds_executed": end.rounds_executed,
        "all_finished": end.all_finished,
        "total_bits": end.total_bits,
    }


class RunObserver:
    """One sink; hooks default to no-ops. ``phase(t, name)``: round ``t``
    enters ``"broadcast"`` or ``"deliver"`` (``None``: its phases are
    over). ``run_abort`` replaces ``run_end`` when the run raises."""

    def __init__(self, sink: Any) -> None:
        self.sink = sink
        self.start: Optional[RunStart] = None

    def run_start(self, start: RunStart) -> None:
        self.start = start

    def phase(self, t: int, name: Optional[str]) -> None:
        pass

    def round_end(self, record: RoundEnd) -> None:
        pass

    def run_end(self, end: RunEnd) -> None:
        pass

    def run_abort(self) -> None:
        pass


class SpanObserver(RunObserver):
    """``simulator.run`` > ``simulator.round`` > ``broadcast``/``deliver``."""

    run_span = round_span = phase_span = None

    def run_start(self, start: RunStart) -> None:
        self.run_span = self.sink.start(
            "simulator.run",
            n=start.n,
            kt=start.kt,
            bandwidth=start.bandwidth,
            rounds_budget=start.rounds_budget,
            faulted=start.faults is not None,
        )

    def phase(self, t: int, name: Optional[str]) -> None:
        if self.phase_span is not None:
            self.sink.finish(self.phase_span)
            self.phase_span = None
        if name == "broadcast":
            self.round_span = self.sink.start("simulator.round", t=t)
        if name is not None:
            self.phase_span = self.sink.start(f"simulator.{name}", t=t)

    def round_end(self, record: RoundEnd) -> None:
        self.sink.finish(self.round_span)

    def run_end(self, end: RunEnd) -> None:
        self.run_span.set_attr("rounds_executed", end.rounds_executed)
        self.run_abort()

    def run_abort(self) -> None:
        # Lenient finish: also closes any open round/phase span, so the
        # next run's spans cannot nest under a stale parent.
        if self.run_span is not None:
            self.sink.finish(self.run_span)
            self.run_span = None


class SessionObserver(RunObserver):
    """One session ``step`` per round (the end-of-run drops have none)."""

    def round_end(self, record: RoundEnd) -> None:
        self.sink.record_round(record)


class TraceObserver(RunObserver):
    """``run_start``, per-round ``fault``/``delivery``/``round``, then the
    dropped ``delivery`` lines, ``cost_summary`` and ``run_end``."""

    def run_start(self, start: RunStart) -> None:
        self.start = start
        plan, net = start.faults, start.network
        fields: Dict[str, Any] = {}
        if plan is not None:
            fields["fault_seed"] = plan.seed
            fields["fault_rates"] = {
                "bit_flip": plan.bit_flip_rate,
                "erasure": plan.erasure_rate,
                "crash": plan.crash_rate,
            }
        if net is not None:  # the delivery policy; the fault plan is above
            fields["network"] = {k: v for k, v in net.as_dict().items() if k != "faults"}
        self.sink.emit(
            "run_start",
            n=start.n,
            kt=start.kt,
            bandwidth=start.bandwidth,
            rounds_budget=start.rounds_budget,
            **fields,
        )

    def round_end(self, record: RoundEnd) -> None:
        emit = self.sink.emit
        for event in record.fault_events:
            emit("fault", **event.as_dict())
        for event in record.net_events:
            emit("delivery", **event.as_dict())
        faults = {"faults": len(record.fault_events)} if self.start.faults is not None else {}
        emit(
            "round",
            t=record.t,
            bits=record.bits,
            wall_seconds=record.wall_seconds,
            all_finished=record.all_finished,
            **faults,
        )

    def run_end(self, end: RunEnd) -> None:
        emit = self.sink.emit
        for event in end.dropped:
            emit("delivery", **event.as_dict())
        if end.cost_summary is not None:
            emit("cost_summary", **end.cost_summary)
        fields: Dict[str, Any] = {}
        if self.start.faults is not None:
            fields["faults_injected"] = end.faults_injected
            fields["crashed_vertices"] = end.crashed_vertices
            fields["failed_vertices"] = end.failed_vertices
        if self.start.network is not None:
            fields["delivery_anomalies"] = end.delivery_anomalies
        emit("run_end", **_ending(end), **fields)


class BusObserver(RunObserver):
    """``simulator.run_start`` / ``simulator.round`` / ``simulator.run_end``."""

    def run_start(self, start: RunStart) -> None:
        payload = {"n": start.n, "kt": start.kt, "rounds_budget": start.rounds_budget}
        self.sink.publish("simulator.run_start", payload)

    def round_end(self, record: RoundEnd) -> None:
        payload = {
            "t": record.t,
            "bits": record.bits,
            "wall_seconds": record.wall_seconds,
            "faults": len(record.fault_events),
            "deliveries": len(record.net_events),
            "all_finished": record.all_finished,
        }
        self.sink.publish("simulator.round", payload)

    def run_end(self, end: RunEnd) -> None:
        self.sink.publish("simulator.run_end", _ending(end))


class MetricsObserver(RunObserver):
    """The ``simulator.*`` counters, early-stop gauge and round histogram."""

    def round_end(self, record: RoundEnd) -> None:
        counter = self.sink.counter
        counter("simulator.rounds_executed").inc()
        counter("simulator.messages_validated").inc(len(record.messages))
        counter("simulator.bits_broadcast").inc(record.bits)
        self.sink.histogram("simulator.round_seconds").observe(record.wall_seconds)
        if record.fault_events:
            counter("simulator.faults_injected").inc(len(record.fault_events))
        if record.net_events:
            counter("simulator.delivery_anomalies").inc(len(record.net_events))

    def run_end(self, end: RunEnd) -> None:
        counter = self.sink.counter
        if end.dropped:
            counter("simulator.delivery_anomalies").inc(len(end.dropped))
        counter("simulator.runs").inc()
        if end.all_finished and end.rounds_executed < self.start.rounds_budget:
            self.sink.gauge("simulator.early_stop_round").set(end.rounds_executed)
            counter("simulator.early_stops").inc()


class CostObserver(RunObserver):
    """Charges each round to the ledger; fills ``RunEnd.cost_summary``."""

    def round_end(self, record: RoundEnd) -> None:
        self.sink.record_round(record.t, record.messages)

    def run_end(self, end: RunEnd) -> None:
        end.cost_summary = run_cost_summary(end.transcripts, end.rounds_executed)


def run_observers(metrics=None, trace=None, costs=None, session=None) -> Tuple[RunObserver, ...]:
    """One run's observers in hook order (empty: no sink is on).
    ``metrics``/``costs`` default to the process-wide registry/ledger."""
    sinks = (
        (SpanObserver, get_recorder()),
        (SessionObserver, session),
        (TraceObserver, trace),
        (BusObserver, get_bus()),
        (MetricsObserver, metrics if metrics is not None else get_registry()),
        (CostObserver, costs if costs is not None else get_ledger()),
    )
    return tuple(kind(sink) for kind, sink in sinks if sink is not None)
