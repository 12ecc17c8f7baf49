"""Deterministic fault injection for BCC broadcast channels.

The paper's lower bounds reason about *adversarial* executions; the clean
simulator in :mod:`repro.core.simulator` only ever runs fault-free ones.
This module supplies the missing adversary as data: a :class:`FaultPlan`
is a seeded, fully deterministic description of which broadcasts get
corrupted, dropped, or silenced, applied by the simulator between the
broadcast step and the delivery step of each round.

Fault taxonomy (the ``kind`` strings used in plans, events, and traces):

``bit_flip``
    One bit of a delivered copy of a message is flipped ('0' <-> '1').
    Applied per (sender, receiver) delivery, so two receivers of the same
    broadcast can see *different* messages -- exactly the port-level
    divergence an adversarial channel induces. Silent broadcasts (the
    paper's ⊥) carry no bits and pass through unchanged.

``erasure``
    A delivered copy of a message is replaced by the empty broadcast ⊥.
    Also per-delivery; the receiver cannot distinguish an erased message
    from deliberate silence, which is what makes the three-character
    alphabet adversarially interesting.

``crash``
    Crash-stop of the *sender*: from the crash round onward the vertex
    broadcasts ⊥ forever (fail-silent). It still hears other vertices and
    still produces an output; whether that output is useful is precisely
    the degradation the resilience harness measures.

Determinism contract: a plan's randomness comes only from ``seed``.
:meth:`FaultPlan.begin_run` returns a fresh :class:`FaultRun` whose RNG is
consumed in a fixed order (round-major, then vertex/pair in index order),
so the same (instance, algorithm, plan) triple always yields bit-identical
executions -- fault injection is replayable evidence, not noise.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultRun", "ScheduledFault"]

#: The fault kinds the channel layer implements.
FAULT_KINDS = ("bit_flip", "erasure", "crash")


@dataclass(frozen=True)
class ScheduledFault:
    """One explicitly scheduled fault (deterministic, rate-independent).

    Attributes
    ----------
    round_index:
        1-based round in which the fault fires.
    kind:
        One of :data:`FAULT_KINDS`.
    vertex:
        The *sender* vertex index affected.
    receiver:
        For ``bit_flip`` / ``erasure``: the receiver whose delivered copy
        is corrupted, or ``None`` for every receiver. Ignored for
        ``crash`` (a crash silences the sender for everyone).
    bit_index:
        For ``bit_flip``: which bit of the message to flip (0-based). Out
        of range (e.g. against a silent broadcast) raises
        :class:`~repro.errors.FaultInjectionError` at apply time, because
        an explicit schedule that does nothing is a driver bug.
    """

    round_index: int
    kind: str
    vertex: int
    receiver: Optional[int] = None
    bit_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.round_index < 1:
            raise FaultInjectionError(
                f"round_index must be >= 1, got {self.round_index}"
            )
        if self.vertex < 0:
            raise FaultInjectionError(f"vertex must be >= 0, got {self.vertex}")
        if self.bit_index < 0:
            raise FaultInjectionError(f"bit_index must be >= 0, got {self.bit_index}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (session logs record the plan they ran under)."""
        return {
            "round_index": self.round_index,
            "kind": self.kind,
            "vertex": self.vertex,
            "receiver": self.receiver,
            "bit_index": self.bit_index,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScheduledFault":
        """Inverse of :meth:`as_dict`; validation reruns in ``__post_init__``."""
        return ScheduledFault(
            round_index=data["round_index"],
            kind=data["kind"],
            vertex=data["vertex"],
            receiver=data.get("receiver"),
            bit_index=data.get("bit_index", 0),
        )


class FaultEvent(NamedTuple):
    """One fault as it actually happened in an execution.

    A named tuple, because a fault sweep builds tens of thousands of
    these and a named tuple is built in one C call. Being a tuple, it
    also compares equal to a plain tuple of the same seven values.
    """

    t: int  # round index, 1-based
    kind: str
    vertex: int  # sender
    receiver: Optional[int]  # None for sender-side faults (crash)
    original: str
    delivered: str
    scheduled: bool = False  # True if from an explicit ScheduledFault

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form, used by trace schema v2 ``fault`` events."""
        return {
            "t": self.t,
            "kind": self.kind,
            "vertex": self.vertex,
            "receiver": self.receiver,
            "original": self.original,
            "delivered": self.delivered,
            "scheduled": self.scheduled,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic adversarial channel description.

    Rates are per-opportunity probabilities: ``crash_rate`` is checked
    once per (round, live vertex); ``bit_flip_rate`` and ``erasure_rate``
    once per (round, sender, receiver) delivery. ``scheduled`` faults fire
    unconditionally at their (round, vertex) coordinates. ``first_round``
    / ``last_round`` bound the window in which *rate-driven* faults may
    fire (scheduled faults carry their own round and ignore the window).
    ``max_crashes`` caps rate-driven crash-stops (scheduled crashes are
    exempt: an explicit schedule is an explicit adversary).
    """

    seed: int = 0
    bit_flip_rate: float = 0.0
    erasure_rate: float = 0.0
    crash_rate: float = 0.0
    max_crashes: Optional[int] = None
    scheduled: Tuple[ScheduledFault, ...] = ()
    first_round: int = 1
    last_round: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("bit_flip_rate", "erasure_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1], got {rate}")
        if self.first_round < 1:
            raise FaultInjectionError(
                f"first_round must be >= 1, got {self.first_round}"
            )
        if self.last_round is not None and self.last_round < self.first_round:
            raise FaultInjectionError(
                f"last_round {self.last_round} < first_round {self.first_round}"
            )
        if self.max_crashes is not None and self.max_crashes < 0:
            raise FaultInjectionError(
                f"max_crashes must be >= 0, got {self.max_crashes}"
            )
        if not isinstance(self.scheduled, tuple):
            object.__setattr__(self, "scheduled", tuple(self.scheduled))

    @property
    def has_rate_faults(self) -> bool:
        return (
            self.bit_flip_rate > 0.0
            or self.erasure_rate > 0.0
            or self.crash_rate > 0.0
        )

    def begin_run(self, n: int) -> "FaultRun":
        """Fresh per-execution state (RNG, crash set, event log)."""
        for fault in self.scheduled:
            if fault.vertex >= n:
                raise FaultInjectionError(
                    f"scheduled fault names vertex {fault.vertex} but the "
                    f"instance has only {n} vertices"
                )
            if fault.receiver is not None and fault.receiver >= n:
                raise FaultInjectionError(
                    f"scheduled fault names receiver {fault.receiver} but "
                    f"the instance has only {n} vertices"
                )
        return FaultRun(plan=self, n=n)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form: everything needed to rebuild the plan exactly.

        Session logs persist this so a replay runs under the *identical*
        adversary -- same seed, same rates, same schedule, same window.
        """
        return {
            "seed": self.seed,
            "bit_flip_rate": self.bit_flip_rate,
            "erasure_rate": self.erasure_rate,
            "crash_rate": self.crash_rate,
            "max_crashes": self.max_crashes,
            "scheduled": [fault.as_dict() for fault in self.scheduled],
            "first_round": self.first_round,
            "last_round": self.last_round,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`as_dict`; validation reruns in ``__post_init__``."""
        return FaultPlan(
            seed=data.get("seed", 0),
            bit_flip_rate=data.get("bit_flip_rate", 0.0),
            erasure_rate=data.get("erasure_rate", 0.0),
            crash_rate=data.get("crash_rate", 0.0),
            max_crashes=data.get("max_crashes"),
            scheduled=tuple(
                ScheduledFault.from_dict(entry)
                for entry in data.get("scheduled", ())
            ),
            first_round=data.get("first_round", 1),
            last_round=data.get("last_round"),
        )

    # Convenience constructors -----------------------------------------
    @staticmethod
    def single_rate(kind: str, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan exercising exactly one fault kind at the given rate."""
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        kwargs = {f"{kind}_rate": rate} if kind != "crash" else {"crash_rate": rate}
        return FaultPlan(seed=seed, **kwargs)


class FaultRun:
    """Mutable per-execution fault state; created by ``FaultPlan.begin_run``.

    The simulator calls :meth:`filter_broadcasts` (sender-side faults:
    crash-stop) and then :meth:`filter_round` (delivery faults: bit flips
    and erasures) once per round. Each walks its vertices or (receiver,
    sender) copies in fixed index order, and all RNG consumption happens
    in that order, which is what makes runs bit-reproducible under a
    fixed seed.
    """

    __slots__ = ("plan", "n", "_rng", "_crashed", "_crashes_injected", "events", "_by_round")

    def __init__(self, plan: FaultPlan, n: int):
        self.plan = plan
        self.n = n
        self._rng = random.Random(plan.seed)
        self._crashed: set = set()
        self._crashes_injected = 0
        self.events: List[FaultEvent] = []
        # Scheduled faults indexed by round for O(1) per-round lookup.
        self._by_round: Dict[int, List[ScheduledFault]] = {}
        for fault in plan.scheduled:
            self._by_round.setdefault(fault.round_index, []).append(fault)

    # ------------------------------------------------------------------
    def _in_window(self, t: int) -> bool:
        plan = self.plan
        if t < plan.first_round:
            return False
        return plan.last_round is None or t <= plan.last_round

    def filter_broadcasts(self, t: int, messages: Tuple[str, ...]) -> Tuple[str, ...]:
        """Apply sender-side faults (crash-stop) to the round's broadcasts.

        Returns ``messages`` itself when no vertex has crashed and the
        round can crash none (no crash rate, no fault scheduled at ``t``).
        """
        plan = self.plan
        crashed = self._crashed
        if not crashed and plan.crash_rate == 0.0 and t not in self._by_round:
            return messages
        out = list(messages)
        events = self.events
        # 1. explicit scheduled crashes for this round
        for fault in self._by_round.get(t, ()):
            if fault.kind == "crash" and fault.vertex not in crashed:
                crashed.add(fault.vertex)
                events.append(
                    FaultEvent(t, "crash", fault.vertex, None, out[fault.vertex], "", True)
                )
        # 2. rate-driven crashes -- one RNG draw per live vertex, fixed order
        if plan.crash_rate > 0.0 and self._in_window(t):
            rand = self._rng.random
            for v in range(self.n):
                if v in crashed:
                    continue
                if rand() < plan.crash_rate and (
                    plan.max_crashes is None
                    or self._crashes_injected < plan.max_crashes
                ):
                    crashed.add(v)
                    self._crashes_injected += 1
                    events.append(FaultEvent(t, "crash", v, None, out[v], ""))
        # 3. silence every crashed vertex (including ones crashed earlier)
        for v in crashed:
            out[v] = ""
        return tuple(out)

    def filter_round(self, t: int, messages: Tuple[str, ...]) -> List[Sequence[str]]:
        """Apply delivery faults to every copy of the round's broadcasts.

        Returns ``rows``: ``rows[v][u]`` is sender u's message as receiver
        v gets it (``rows[v][v]`` is v's own broadcast, never delivered).
        Copies are ordered receiver-major, then sender, both ascending --
        the fixed order every RNG draw and event follows. A round that
        cannot fault a copy (no scheduled delivery fault and no rate in
        force) makes no draws and returns ``[messages] * n``.

        Each copy takes a fixed number of rate draws whatever its message
        (one for erasure, two for a bit flip), so the round's draws are
        taken up front, in copy order, and only the copies a fault can
        reach are visited: those a scheduled fault targets and those
        whose erasure or bit-flip draw fires. A scheduled bit flip past
        the end of its message raises :class:`FaultInjectionError` after
        the round's draws; the error ends the run, so nothing reads the
        RNG state it leaves.
        """
        plan = self.plan
        n = self.n
        scheduled = [f for f in self._by_round.get(t, ()) if f.kind != "crash"]
        erasure_rate = bit_flip_rate = 0.0
        if self._in_window(t):
            erasure_rate = plan.erasure_rate
            bit_flip_rate = plan.bit_flip_rate
        if not scheduled and erasure_rate == 0.0 and bit_flip_rate == 0.0:
            return [messages] * n
        per_copy = (erasure_rate > 0.0) + 2 * (bit_flip_rate > 0.0)
        draws = list(starmap(self._rng.random, repeat((), per_copy * n * (n - 1))))
        # Copy c is (receiver, sender) = (c // (n - 1), the (c % (n - 1))-th
        # other vertex); its draws are draws[c * per_copy:(c + 1) * per_copy].
        # Each list of firing copies comes out ascending.
        firing = []
        if erasure_rate > 0.0:
            firing.append(
                [c for c, draw in enumerate(draws[::per_copy]) if draw < erasure_rate]
            )
        if bit_flip_rate > 0.0:
            firing.append(
                [
                    c
                    for c, draw in enumerate(draws[per_copy - 2 :: per_copy])
                    if draw < bit_flip_rate
                ]
            )
        for fault in scheduled:
            sender = fault.vertex
            receivers = range(n) if fault.receiver is None else (fault.receiver,)
            firing.append(
                [
                    receiver * (n - 1) + sender - (sender > receiver)
                    for receiver in receivers
                    if receiver != sender
                ]
            )
        hot = firing[0] if len(firing) == 1 else sorted(set().union(*firing))
        events = self.events
        rows: List[Sequence[str]] = [messages] * n
        for c in hot:
            receiver, offset = divmod(c, n - 1)
            sender = offset + (offset >= receiver)
            delivered = messages[sender]
            # explicit scheduled faults targeting this delivery
            for fault in scheduled:
                if fault.vertex != sender:
                    continue
                if fault.receiver is not None and fault.receiver != receiver:
                    continue
                if fault.kind == "erasure":
                    if delivered != "":
                        events.append(
                            FaultEvent(t, "erasure", sender, receiver, delivered, "", True)
                        )
                        delivered = ""
                else:  # bit_flip
                    if fault.bit_index >= len(delivered):
                        raise FaultInjectionError(
                            f"scheduled bit_flip at round {t} targets bit "
                            f"{fault.bit_index} of message {delivered!r} from "
                            f"vertex {sender} (message too short)"
                        )
                    flipped = _flip(delivered, fault.bit_index)
                    events.append(
                        FaultEvent(t, "bit_flip", sender, receiver, delivered, flipped, True)
                    )
                    delivered = flipped
            # rate-driven faults, read off this copy's draws
            at = c * per_copy
            if erasure_rate > 0.0:
                if draws[at] < erasure_rate and delivered != "":
                    events.append(
                        FaultEvent(t, "erasure", sender, receiver, delivered, "")
                    )
                    delivered = ""
                at += 1
            if bit_flip_rate > 0.0:
                draw, pick = draws[at], draws[at + 1]
                if draw < bit_flip_rate and delivered:
                    index = int(pick * len(delivered))
                    flipped = _flip(delivered, min(index, len(delivered) - 1))
                    events.append(
                        FaultEvent(t, "bit_flip", sender, receiver, delivered, flipped)
                    )
                    delivered = flipped
            row = rows[receiver]
            if row is messages:
                row = rows[receiver] = list(messages)
            row[sender] = delivered
        return rows

    # ------------------------------------------------------------------
    def rng_digest(self) -> str:
        """SHA-256 fingerprint of the current RNG state.

        Session logs record this each round; a replay whose fault RNG
        drifted from the recorded stream is caught at the exact round the
        consumption order first differed, not at the end of the run.
        """
        state = repr(self._rng.getstate()).encode("utf-8")
        return hashlib.sha256(state).hexdigest()

    @property
    def crashed_vertices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._crashed))


def _flip(message: str, index: int) -> str:
    bit = "1" if message[index] == "0" else "0"
    return message[:index] + bit + message[index + 1 :]
