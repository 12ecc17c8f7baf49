"""A bounded, subscribable in-process event bus for live progress.

Long sweeps and scans already *produce* telemetry -- trace events, span
trees, metrics -- but all of it is post-hoc: you read the artifacts
after the run. The bus is the live tap: instrumented call sites
(:class:`repro.core.simulator.Simulator` rounds, fault-sweep cells,
:class:`repro.parallel.ParallelExecutor` shard completions, benchmark
kernels) publish small structured events as they happen, and anything in
the process -- a progress printer, a future job-service streamer -- can
subscribe. This is the progress-streaming seam the ROADMAP item 1
experiment service will sit on.

The bus is **opt-in**, installed process-wide with :func:`use_bus` (or
:func:`set_bus`) and resolved **once** per run. In the round engine it
is one observer on the run-event stream
(:mod:`repro.core.observers`): the simulator builds one record per run
event and hands it to the observer tuple, so with no sink installed
each hook costs one empty-tuple check and no payload is built (the <1%
``Simulator.run`` overhead budget was measured A/B in EXPERIMENTS.md
O2; end-to-end runs report it as ``trace.overhead_frac``). Subscriber
callbacks run on the publishing thread, outside the bus lock; a
callback that raises is counted (``error_count``) and never breaks the
publisher.

Events are retained in a bounded ring buffer (``capacity`` most recent)
so a late subscriber -- or a test -- can inspect recent history without
having been attached from the start.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.metrics import ProcessSink

__all__ = [
    "DEFAULT_BUS_CAPACITY",
    "Event",
    "EventBus",
    "get_bus",
    "line_printer",
    "set_bus",
    "use_bus",
]

DEFAULT_BUS_CAPACITY = 1024


@dataclass(frozen=True)
class Event:
    """One published event: a monotone sequence number, a dotted kind
    (``"simulator.round"``, ``"sweep.cell"``, ...), and a payload."""

    seq: int
    kind: str
    payload: Mapping[str, Any]


class EventBus:
    """Thread-safe pub/sub with a bounded replay buffer."""

    __slots__ = ("_lock", "_buffer", "_subscribers", "_next_token", "_seq", "_errors")

    def __init__(self, capacity: int = DEFAULT_BUS_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._buffer: Deque[Event] = deque(maxlen=capacity)
        #: token -> (callback, kinds-or-None)
        self._subscribers: Dict[int, Tuple[Callable[[Event], None], Optional[frozenset]]] = {}
        self._next_token = 1
        self._seq = 0
        self._errors = 0

    # -- subscription ---------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[Event], None],
        kinds: Optional[List[str]] = None,
    ) -> int:
        """Attach ``callback``; returns a token for :meth:`unsubscribe`.

        ``kinds`` restricts delivery to those event kinds (None = all).
        """
        wanted = None if kinds is None else frozenset(kinds)
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = (callback, wanted)
        return token

    def unsubscribe(self, token: int) -> None:
        with self._lock:
            self._subscribers.pop(token, None)

    @contextmanager
    def subscription(
        self,
        callback: Callable[[Event], None],
        kinds: Optional[List[str]] = None,
    ) -> Iterator[int]:
        """Scoped :meth:`subscribe`: detach when the block exits."""
        token = self.subscribe(callback, kinds)
        try:
            yield token
        finally:
            self.unsubscribe(token)

    # -- publication ----------------------------------------------------
    def publish(self, kind: str, payload: Mapping[str, Any]) -> Event:
        """Record an event and deliver it to matching subscribers.

        Callbacks run on this thread, outside the lock; one raising
        subscriber never affects the others or the publisher.
        """
        with self._lock:
            self._seq += 1
            event = Event(self._seq, kind, payload)
            self._buffer.append(event)
            targets = list(self._subscribers.values())
        for callback, wanted in targets:
            if wanted is not None and kind not in wanted:
                continue
            try:
                callback(event)
            except Exception:
                with self._lock:
                    self._errors += 1
        return event

    # -- inspection -----------------------------------------------------
    def events(self, kinds: Optional[List[str]] = None) -> List[Event]:
        """A snapshot of the retained ring buffer (oldest first)."""
        with self._lock:
            snapshot = list(self._buffer)
        if kinds is None:
            return snapshot
        wanted = frozenset(kinds)
        return [event for event in snapshot if event.kind in wanted]

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    @property
    def published_count(self) -> int:
        with self._lock:
            return self._seq

    @property
    def error_count(self) -> int:
        """Subscriber callbacks that raised (and were contained)."""
        with self._lock:
            return self._errors


def line_printer(stream: Any = None) -> Callable[[Event], None]:
    """A ready-made subscriber printing one ``kind key=value ...`` line
    per event (to stderr by default) -- the ``fault-sweep --live``
    progress feed."""

    def emit(event: Event) -> None:
        out = stream if stream is not None else sys.stderr
        fields = " ".join(f"{key}={event.payload[key]}" for key in sorted(event.payload))
        print(f"[{event.seq}] {event.kind} {fields}".rstrip(), file=out)

    return emit


_bus = ProcessSink()
#: The installed :class:`EventBus` (None: streaming is off).
get_bus, set_bus, use_bus = _bus.get, _bus.set, _bus.use
