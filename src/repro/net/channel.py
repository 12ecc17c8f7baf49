"""Per-edge channels and the network manager that owns them.

This is the delivery layer extracted from ``Simulator._execute``: every
ordered pair of vertices gets a :class:`Channel`, and a
:class:`NetworkManager` applies the run's delivery pipeline to each
round's copies in one call::

    broadcast --> fault filter (FaultRun, unchanged RNG stream)
              --> channel transmit (delay / duplicate / reorder queues)
              --> receiver port

A *pristine* plan (the default, and what plain ``faults=`` runs use)
allocates no channels at all: the manager delegates straight to the
fault layer, so pre-refactor faulted executions stay bit-identical and
the clean path stays channel-free entirely.

RNG discipline mirrors :class:`~repro.resilience.faults.FaultRun`: one
``random.Random(plan.seed)`` on the manager, consumed in fixed (round,
receiver, sender) order with a fixed number of draws per non-silent
transmission, so the delivery schedule is a pure function of (plan,
traffic).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.plan import NetworkEvent, NetworkPlan
from repro.resilience.faults import FaultRun

__all__ = ["Channel", "NetworkManager", "delivery_population"]


def delivery_population(stats: List[Dict[str, int]]) -> Dict[str, Dict[str, object]]:
    """Mergeable population sketches over per-edge delivery counters.

    ``stats`` is any iterable of :meth:`Channel.stats` dicts (one run's
    :meth:`NetworkManager.delivery_stats`, or many runs' concatenated).
    Returns serialized sketch states (see :mod:`repro.obs.sketches`):
    ``"edge_sent"`` / ``"edge_delivered"`` quantile sketches over the
    per-edge counters and a ``"disruptions"`` top-k sketch counting
    delayed/duplicated/reordered/dropped copies. The result is a pure
    function of the stats multiset, so populations from sharded sweeps
    fold to the same state regardless of worker count -- combine them
    with :func:`repro.obs.sketches.merge_population`.
    """
    # Lazy: sketches pulls in repro.parallel, which reaches back through
    # repro.resilience into modules that import this delivery layer.
    from repro.obs.sketches import QuantileSketch, TopKSketch

    sent = QuantileSketch()
    delivered = QuantileSketch()
    disruptions = TopKSketch()
    for entry in stats:
        sent.update(float(entry["sent"]))
        delivered.update(float(entry["delivered"]))
        for kind in ("delayed", "duplicated", "reordered", "dropped"):
            count = int(entry.get(kind, 0))
            if count:
                disruptions.update(kind, count)
    return {
        "edge_sent": sent.to_dict(),
        "edge_delivered": delivered.to_dict(),
        "disruptions": disruptions.to_dict(),
    }


class Channel:
    """One directed edge's delivery queue.

    ``_pending`` holds in-flight copies as ``(arrival, seq, sent_round,
    message, duplicate)`` tuples; tuple order defines FIFO (earliest
    arrival, then transmission order), which the reorder policy perturbs.
    """

    __slots__ = (
        "sender",
        "receiver",
        "_pending",
        "_seq",
        "sent",
        "delivered",
        "delayed",
        "duplicated",
        "reordered",
        "dropped",
    )

    def __init__(self, sender: int, receiver: int):
        self.sender = sender
        self.receiver = receiver
        self._pending: List[Tuple[int, int, int, str, bool]] = []
        self._seq = 0
        self.sent = 0
        self.delivered = 0
        self.delayed = 0
        self.duplicated = 0
        self.reordered = 0
        self.dropped = 0

    def transmit(
        self,
        t: int,
        message: str,
        plan: NetworkPlan,
        rng: random.Random,
        events: List[NetworkEvent],
    ) -> str:
        """Enqueue this round's copy, then deliver whatever is due.

        Returns the delivered message, or the empty broadcast ⊥ when
        nothing is due -- the receiver cannot tell a late message from
        silence. Draw order per non-silent transmission is fixed (delay
        then duplicate), keeping the RNG stream aligned with traffic.
        """
        if message != "":
            self.sent += 1
            delay = rng.randint(0, plan.max_delay) if plan.max_delay > 0 else 0
            duplicate = (
                plan.duplicate_rate > 0.0 and rng.random() < plan.duplicate_rate
            )
            self._enqueue(t + delay, t, message, False)
            if delay > 0:
                self.delayed += 1
                events.append(
                    NetworkEvent(
                        t=t,
                        kind="delayed",
                        sender=self.sender,
                        receiver=self.receiver,
                        sent_round=t,
                        arrival_round=t + delay,
                        message=message,
                    )
                )
            if duplicate:
                self._enqueue(t + delay + 1, t, message, True)
                self.duplicated += 1
                events.append(
                    NetworkEvent(
                        t=t,
                        kind="duplicated",
                        sender=self.sender,
                        receiver=self.receiver,
                        sent_round=t,
                        arrival_round=t + delay + 1,
                        message=message,
                        duplicate=True,
                    )
                )
        due = sorted(
            index
            for index, entry in enumerate(self._pending)
            if entry[0] <= t
        )
        if not due:
            return ""
        pick = due[0]
        if plan.reorder and len(due) > 1:
            choice = rng.randrange(len(due))
            pick = due[choice]
            if choice != 0:
                entry = self._pending[pick]
                self.reordered += 1
                events.append(
                    NetworkEvent(
                        t=t,
                        kind="reordered",
                        sender=self.sender,
                        receiver=self.receiver,
                        sent_round=entry[2],
                        arrival_round=t,
                        message=entry[3],
                        duplicate=entry[4],
                    )
                )
        entry = self._pending.pop(pick)
        self.delivered += 1
        return entry[3]

    def finish(self, final_round: int, events: List[NetworkEvent]) -> None:
        """Drop (and record) every copy still in flight at run end."""
        for arrival, _seq, sent_round, message, duplicate in self._pending:
            self.dropped += 1
            events.append(
                NetworkEvent(
                    t=final_round,
                    kind="dropped",
                    sender=self.sender,
                    receiver=self.receiver,
                    sent_round=sent_round,
                    arrival_round=arrival,
                    message=message,
                    duplicate=duplicate,
                )
            )
        self._pending.clear()

    def stats(self) -> Dict[str, int]:
        """Per-edge counters for ``repro report --session``."""
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "sent": self.sent,
            "delivered": self.delivered,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "dropped": self.dropped,
        }

    # ------------------------------------------------------------------
    def _enqueue(self, arrival: int, sent_round: int, message: str, duplicate: bool) -> None:
        self._pending.append((arrival, self._seq, sent_round, message, duplicate))
        self._pending.sort()
        self._seq += 1


class NetworkManager:
    """Per-run delivery state: fault filter first, channels second.

    Created by :meth:`repro.net.NetworkPlan.begin_run`; the simulator
    calls :meth:`filter_broadcasts` and then :meth:`deliver_round` once
    per round. ``fault_run`` may be ``None`` (pure delivery policy, no
    corruption); channels exist only for non-pristine plans, so a
    pristine manager is a thin shim over the fault layer with zero extra
    RNG draws.
    """

    __slots__ = ("plan", "n", "fault_run", "events", "_rng", "_channels")

    def __init__(self, plan: NetworkPlan, n: int, fault_run: Optional[FaultRun] = None):
        self.plan = plan
        self.n = n
        self.fault_run = fault_run
        self.events: List[NetworkEvent] = []
        if plan.is_pristine:
            self._rng = None
            self._channels = None
        else:
            self._rng = random.Random(plan.seed)
            self._channels = [
                [Channel(u, v) if u != v else None for v in range(n)]
                for u in range(n)
            ]

    def filter_broadcasts(self, t: int, messages: Tuple[str, ...]) -> Tuple[str, ...]:
        """Sender-side faults (crash-stop); identity without a fault run."""
        if self.fault_run is None:
            return messages
        return self.fault_run.filter_broadcasts(t, messages)

    def deliver_round(self, t: int, messages: Tuple[str, ...]) -> List[Sequence[str]]:
        """Every copy of the round's broadcasts through the full pipeline.

        Returns ``rows`` with ``rows[v][u]`` the message receiver v gets
        from sender u. The fault filter runs over the whole round first,
        then each edge's channel in (receiver, sender) order. The two
        stages own separate RNG streams and event lists, so each stream
        sees the same draws, and each list the same events, as when the
        stages alternated copy by copy.
        """
        if self.fault_run is None:
            rows: List[Sequence[str]] = [messages] * self.n
        else:
            rows = self.fault_run.filter_round(t, messages)
        if self._channels is None:
            return rows
        plan, rng, events, channels = self.plan, self._rng, self.events, self._channels
        delivered: List[Sequence[str]] = []
        for receiver, row in enumerate(rows):
            out = list(row)
            for sender in range(self.n):
                if sender != receiver:
                    out[sender] = channels[sender][receiver].transmit(
                        t, row[sender], plan, rng, events
                    )
            delivered.append(out)
        return delivered

    def finish(self, final_round: int) -> None:
        """Close the run: record every still-queued copy as dropped."""
        if self._channels is None:
            return
        for row in self._channels:
            for channel in row:
                if channel is not None:
                    channel.finish(final_round, self.events)

    # ------------------------------------------------------------------
    def delivery_stats(self) -> List[Dict[str, int]]:
        """Per-edge counters for edges that carried traffic, index order."""
        if self._channels is None:
            return []
        stats = []
        for row in self._channels:
            for channel in row:
                if channel is None:
                    continue
                if channel.sent or channel.delivered or channel.dropped:
                    stats.append(channel.stats())
        return stats

    def rng_digest(self) -> Optional[str]:
        """SHA-256 fingerprint of the channel RNG state (None if pristine)."""
        if self._rng is None:
            return None
        state = repr(self._rng.getstate()).encode("utf-8")
        return hashlib.sha256(state).hexdigest()
