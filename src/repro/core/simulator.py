"""The synchronous round engine for BCC(b) executions.

The simulator is the paper's model made operational: a complete network of
``n`` vertices, each broadcasting at most ``b`` bits per round, with every
broadcast delivered to the other ``n - 1`` vertices through their port to
the sender. It records full per-vertex transcripts so lower-bound machinery
(active edges, edge labels, indistinguishability checks) can be computed on
real executions rather than abstract ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm import AlgorithmFactory, NodeAlgorithm
from repro.core.instance import BCCInstance
from repro.core.knowledge import InitialKnowledge
from repro.core.model import BCCModel
from repro.core.observers import RoundEnd, RunEnd, RunObserver, RunStart, run_observers
from repro.core.randomness import PublicCoin
from repro.core.transcript import Transcript
from repro.errors import SimulationError

if TYPE_CHECKING:  # imported lazily to keep core free of resilience deps
    from repro.net.plan import NetworkEvent, NetworkPlan
    from repro.resilience.faults import FaultEvent, FaultPlan


@dataclass
class RunResult:
    """Everything observable about one execution.

    Attributes
    ----------
    instance:
        The instance that was executed.
    outputs:
        ``outputs[v]`` is vertex index v's output.
    transcripts:
        ``transcripts[v]`` is vertex index v's full transcript, held as
        its ``sent`` and ``received`` columns (one entry per round);
        ``transcripts[v].record(t)`` builds round t's
        :class:`~repro.core.transcript.RoundRecord` on demand.
    rounds_executed:
        Number of rounds actually run (may be fewer than requested when
        every vertex reported ``finished()``).
    broadcast_history:
        ``broadcast_history[t - 1][v]`` is the message vertex v broadcast in
        round t. This global view belongs to the simulator/analyst, never to
        the nodes. Under fault injection this is the *on-channel* view: a
        crashed vertex's entry is the empty broadcast from its crash round
        onward, while delivery faults (bit flips, erasures) appear only in
        the per-receiver transcripts -- exactly the information asymmetry
        an adversarial channel creates.
    fault_events:
        The faults injected during this run (empty for clean runs), in
        injection order. See :mod:`repro.resilience.faults`.
    crashed_vertices:
        Vertex indices crash-stopped at any point during the run.
    failed_vertices:
        Vertex indices whose node algorithm raised while processing
        fault-corrupted input; such nodes fail-stop (silent forever,
        output ``None``). Always empty for clean runs, where node
        exceptions propagate as they did before fault injection existed.
    cost_summary:
        Per-run communication-cost record (total bits, rounds, and a
        per-vertex bits/silent-rounds breakdown -- see
        :func:`repro.costs.ledger.run_cost_summary`), populated only
        when a :class:`~repro.costs.ledger.CostLedger` was active for
        the run; ``None`` otherwise, keeping the disabled path free.
    network_events:
        Delivery anomalies (delays, duplicates, reorders, end-of-run
        drops) injected by a non-pristine
        :class:`~repro.net.NetworkPlan`, in injection order; empty for
        clean and faults-only runs.
    delivery_stats:
        Per-edge delivery counters for edges that carried traffic under
        a non-pristine network plan (see
        :meth:`repro.net.Channel.stats`); empty otherwise.
    """

    instance: BCCInstance
    outputs: Tuple[Any, ...]
    transcripts: Tuple[Transcript, ...]
    rounds_executed: int
    broadcast_history: Tuple[Tuple[str, ...], ...]
    all_finished: bool = False
    fault_events: Tuple["FaultEvent", ...] = ()
    crashed_vertices: Tuple[int, ...] = ()
    failed_vertices: Tuple[int, ...] = ()
    cost_summary: Optional[Dict[str, Any]] = None
    network_events: Tuple["NetworkEvent", ...] = ()
    delivery_stats: Tuple[Dict[str, int], ...] = ()

    def sent_sequence(self, v: int) -> Tuple[str, ...]:
        """The message sequence vertex index ``v`` broadcast."""
        return self.transcripts[v].sent_sequence()

    def total_bits_broadcast(self) -> int:
        """Total bits broadcast by all vertices over the whole run."""
        return sum(t.bits_sent() for t in self.transcripts)

    def state_view(self, v: int, knowledge: InitialKnowledge, t: Optional[int] = None) -> tuple:
        """Hashable state (knowledge + t-round transcript prefix) of vertex v."""
        rounds = self.rounds_executed if t is None else t
        return (knowledge.comparable_view(), self.transcripts[v].prefix_comparable(rounds))


def _receiver_free_labels(
    port_rows: Sequence[Sequence[Tuple[int, int]]],
) -> Optional[List[int]]:
    """Sender u's port label at every receiver, if no label depends on it.

    ``port_rows[v]`` lists receiver v's ``(port, sender)`` pairs, sender
    ascending. In KT-1 the port to u is u's ID at every receiver, so the
    result is the ID vector; a KT-0 numbering generally gives ``None``.
    ``None`` also when two senders share a label.
    """
    n = len(port_rows)
    if n < 2:
        return None
    labels = [port_rows[1][0][0]] + [port for port, _ in port_rows[0]]
    if len(set(labels)) < n:
        return None
    for v, row in enumerate(port_rows):
        if row != [(labels[u], u) for u in range(n) if u != v]:
            return None
    return labels


class Simulator:
    """Runs node algorithms on BCC instances under a fixed model.

    Observability is opt-in. Each run resolves its sinks once into a
    tuple of observers (:mod:`repro.core.observers`, which fixes the
    hook order): the span recorder (:func:`repro.obs.use_recorder`), the
    ``session`` given to :meth:`run`, ``trace`` (a
    :class:`repro.obs.RunTrace`), ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`, or one installed with
    :func:`repro.obs.use_registry`) and ``costs`` (a
    :class:`repro.costs.CostLedger`, or one installed with
    :func:`repro.costs.use_ledger`; it also fills
    ``RunResult.cost_summary``). The run builds one record per run
    start, round and run end and hands it to every observer; with no
    sink on, each hook costs one empty-tuple check.

    Fault injection is likewise opt-in and costs a few ``None`` checks per
    round when disabled: pass ``faults`` (a
    :class:`repro.resilience.FaultPlan`) to :meth:`run` to execute under
    a deterministic adversarial channel (bit flips, erasures, crash-stops
    applied between broadcast and delivery). Adversarial runs route
    delivery through a :class:`repro.net.NetworkManager`, so ``faults``
    is one pluggable delivery policy among several: pass ``network`` (a
    :class:`repro.net.NetworkPlan`) to add per-edge delay, duplication,
    and deterministic reordering on top of -- or instead of -- faults.
    """

    def __init__(
        self,
        model: BCCModel,
        metrics=None,
        trace=None,
        costs=None,
    ):
        self._model = model
        self._metrics = metrics
        self._trace = trace
        self._costs = costs

    @property
    def model(self) -> BCCModel:
        return self._model

    def initial_knowledge(self, instance: BCCInstance, v: int, coin: PublicCoin) -> InitialKnowledge:
        """Construct the time-0 knowledge of vertex index ``v``."""
        return InitialKnowledge(
            vertex_id=instance.vertex_id(v),
            n=instance.n,
            bandwidth=self._model.bandwidth,
            kt=instance.kt,
            ports=instance.port_labels(v),
            input_ports=instance.input_ports(v),
            all_ids=tuple(sorted(instance.ids)) if instance.kt == 1 else None,
            coin=coin,
        )

    def run(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        rounds: int,
        coin: Optional[PublicCoin] = None,
        faults: Optional["FaultPlan"] = None,
        network: Optional["NetworkPlan"] = None,
        session=None,
    ) -> RunResult:
        """Execute ``rounds`` synchronous rounds of the algorithm.

        Stops early after any round in which every vertex reports
        ``finished()``. The same ``coin`` object is handed to every vertex
        (the public-coin model); omit it for a fixed default seed.

        ``faults`` (a :class:`repro.resilience.FaultPlan`, default None)
        runs the execution under a deterministic adversarial channel: the
        plan is applied between broadcast and delivery each round, so
        per-receiver views can diverge. With no plan the clean path costs a
        few ``None`` checks per round.

        ``network`` (a :class:`repro.net.NetworkPlan`, default None) routes
        delivery through per-edge :class:`repro.net.Channel` objects --
        seeded delay/duplication/reordering composing with ``faults``. A
        network plan may carry its own fault plan; an explicit ``faults``
        argument wins when both name one.

        ``session`` (a :class:`repro.replay.SessionStore`) records every
        round -- broadcasts, per-vertex round digests, fault and delivery
        events, RNG state transitions -- for later replay/rewind. It is
        one more observer of the run-event stream.
        """
        if instance.kt != self._model.kt:
            raise SimulationError(
                f"instance knowledge level KT-{instance.kt} does not match "
                f"model KT-{self._model.kt}"
            )
        if rounds < 0:
            raise SimulationError(f"rounds must be >= 0, got {rounds}")
        the_coin = coin if coin is not None else PublicCoin()
        if faults is None and network is not None:
            faults = network.faults
        observers = run_observers(self._metrics, self._trace, self._costs, session)
        try:
            return self._execute(
                instance, factory, rounds, the_coin, faults, network, observers
            )
        except BaseException:
            for observer in reversed(observers):
                observer.run_abort()
            raise

    def _execute(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        rounds: int,
        the_coin: PublicCoin,
        plan: Optional["FaultPlan"],
        net_plan: Optional["NetworkPlan"],
        observers: Tuple[RunObserver, ...],
    ) -> RunResult:
        """The round engine proper (observers already resolved).

        Clean and adversarial executions share one round loop. Each round
        produces ``rows``, where ``rows[v][u]`` is sender u's message as
        receiver v gets it: the broadcasts themselves in a clean run, one
        :meth:`repro.net.NetworkManager.deliver_round` call in an
        adversarial one (any fault or network plan). A bare fault plan
        rides in a *pristine* network plan, whose manager allocates no
        channels and adds no RNG draws, keeping faults-only runs
        bit-identical to the pre-channel-layer engine. Receivers read
        ``rows`` through a port table built once per run. When no port
        label depends on the receiver (KT-1, where the port to u is u's
        ID), each round builds one label -> message map of the broadcasts,
        and every receiver whose row is the broadcasts themselves gets a
        copy of it without its own entry; other rows (faulted, delayed)
        and receiver-specific labels (KT-0) are read port by port. Each
        vertex's ``sent`` and ``received`` go straight onto its
        transcript's columns.
        """
        n = instance.n
        if net_plan is not None:
            net_run = net_plan.begin_run(n, plan)
        elif plan is not None:
            from repro.net.plan import NetworkPlan

            net_plan = NetworkPlan()
            net_run = net_plan.begin_run(n, plan)
        else:
            net_run = None
        fault_run = net_run.fault_run if net_run is not None else None
        # The live event logs; each round record slices off its new events.
        fault_log = fault_run.events if fault_run is not None else []
        net_log = net_run.events if net_run is not None else []
        closing = observers[::-1]
        if observers:
            start = RunStart(
                n=n,
                kt=instance.kt,
                bandwidth=self._model.bandwidth,
                rounds_budget=rounds,
                faults=plan if fault_run is not None else None,
                network=None if net_plan is None or net_plan.is_pristine else net_plan,
            )
            for observer in observers:
                observer.run_start(start)

        nodes: List[NodeAlgorithm] = []
        for v in range(n):
            node = factory()
            node.setup(self.initial_knowledge(instance, v, the_coin))
            nodes.append(node)

        # Each node's hooks, looked up once per run.
        broadcasts = [node.broadcast for node in nodes]
        receives = [node.receive for node in nodes]
        finisheds = [node.finished for node in nodes]
        validate = self._model.validate_message
        # Messages already validated this run (validity depends only on
        # the message and the model); anything else, a new string or a
        # non-str, goes through ``validate_message``.
        valid: set = set()

        transcripts = [Transcript() for _ in range(n)]
        append_sent = [tr.sent.append for tr in transcripts]
        append_received = [tr.received.append for tr in transcripts]
        history: List[Tuple[str, ...]] = []
        # Each receiver's (port, sender) pairs, sender ascending: the key
        # order of every ``received`` dict, looked up once per run.
        port_rows = [
            [(instance.port_to_peer(v, u), u) for u in range(n) if u != v]
            for v in range(n)
        ]
        labels = _receiver_free_labels(port_rows)

        executed = 0
        total_bits = 0
        fault_seen = 0
        net_seen = 0
        failed_nodes: set = set()
        done = all(finished() for finished in finisheds)
        for t in range(1, rounds + 1):
            if done:
                break
            if observers:
                round_start = time.perf_counter()
                for observer in observers:
                    observer.phase(t, "broadcast")
            # One loop for clean and adversarial rounds. Under an
            # adversarial channel a node choking on corrupted input is
            # part of the degradation being measured, not a simulator bug:
            # any exception a node raises fail-stops that node (silent
            # forever, output None) instead of killing the execution. In
            # clean runs node exceptions propagate, and ``failed_nodes``
            # stays empty.
            collected: List[str] = []
            for v in range(n):
                if v in failed_nodes:
                    collected.append("")
                    continue
                try:
                    message = broadcasts[v](t)
                    if type(message) is not str or message not in valid:
                        valid.add(validate(message))
                    collected.append(message)
                except Exception:
                    if net_run is None:
                        raise
                    failed_nodes.add(v)
                    collected.append("")
            messages = tuple(collected)
            if net_run is not None:
                # Sender-side faults (crash-stop) first, then the round's
                # delivery pipeline (fault filter, then channels) so
                # port-level views can diverge.
                messages = net_run.filter_broadcasts(t, messages)
            history.append(messages)
            for observer in observers:
                observer.phase(t, "deliver")
            # rows[v][u]: sender u's message as receiver v gets it.
            rows: List[Sequence[str]] = (
                [messages] * n if net_run is None else net_run.deliver_round(t, messages)
            )
            # Every receiver of an undisturbed row hears the same vector;
            # with receiver-free port labels (KT-1) its map is one shared
            # map, copied, minus the receiver's own entry.
            shared = dict(zip(labels, messages)) if labels is not None else None
            for v in range(n):
                row = rows[v]
                if row is messages and shared is not None:
                    received = shared.copy()
                    del received[labels[v]]
                else:
                    received = {port: row[u] for port, u in port_rows[v]}
                if v not in failed_nodes:
                    try:
                        receives[v](t, received)
                    except Exception:
                        if net_run is None:
                            raise
                        failed_nodes.add(v)
                append_sent[v](messages[v])
                append_received[v](received)
            done = True
            for v in range(n):
                if v in failed_nodes:
                    continue  # a failed node makes no further progress
                try:
                    if not finisheds[v]():
                        done = False
                        if net_run is None:
                            break  # clean runs ask no further node, as all() would
                except Exception:
                    if net_run is None:
                        raise
                    failed_nodes.add(v)
            executed = t
            if observers:
                for observer in observers:
                    observer.phase(t, None)
                record = RoundEnd(
                    t=t,
                    messages=messages,
                    transcripts=transcripts,
                    bits=sum(len(m) for m in messages),
                    wall_seconds=time.perf_counter() - round_start,
                    fault_events=fault_log[fault_seen:],
                    net_events=net_log[net_seen:],
                    all_finished=done,
                    net_run=net_run,
                )
                fault_seen, net_seen = len(fault_log), len(net_log)
                total_bits += record.bits
                for observer in closing:
                    observer.round_end(record)

        if net_run is not None:
            # Close every channel: copies still in flight become recorded
            # "dropped" delivery events (a no-op for pristine managers).
            net_run.finish(executed)
        crashed = fault_run.crashed_vertices if fault_run is not None else ()
        cost_summary = None
        if observers:
            end = RunEnd(
                rounds_executed=executed,
                all_finished=done,
                total_bits=total_bits,
                transcripts=transcripts,
                dropped=net_log[net_seen:],
                faults_injected=len(fault_log),
                crashed_vertices=crashed,
                failed_vertices=tuple(sorted(failed_nodes)),
                delivery_anomalies=len(net_log),
            )
            for observer in closing:
                observer.run_end(end)
            cost_summary = end.cost_summary

        collected_out: List[Any] = []
        for v in range(n):
            if v in failed_nodes:
                collected_out.append(None)
                continue
            try:
                collected_out.append(nodes[v].output())
            except Exception:
                if net_run is None:
                    raise
                failed_nodes.add(v)
                collected_out.append(None)
        outputs = tuple(collected_out)
        return RunResult(
            instance=instance,
            outputs=outputs,
            transcripts=tuple(transcripts),
            rounds_executed=executed,
            broadcast_history=tuple(history),
            all_finished=done,
            fault_events=tuple(fault_log),
            crashed_vertices=crashed,
            failed_vertices=tuple(sorted(failed_nodes)),
            cost_summary=cost_summary,
            network_events=tuple(net_log),
            delivery_stats=(
                tuple(net_run.delivery_stats()) if net_run is not None else ()
            ),
        )

    def run_until_done(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        max_rounds: int,
        coin: Optional[PublicCoin] = None,
    ) -> RunResult:
        """Run until every vertex is finished, or raise after ``max_rounds``.

        Unlike :meth:`run`, exhausting the budget without global completion
        is treated as an error; use this for upper-bound algorithms whose
        round complexity is itself the measured quantity.
        """
        result = self.run(instance, factory, max_rounds, coin)
        if not result.all_finished:
            raise SimulationError(
                f"algorithm did not finish within {max_rounds} rounds"
            )
        return result
