"""The per-(vertex, round, phase) communication-bit ledger.

:class:`repro.core.simulator.Simulator` already measures total bits per
round; the ledger keeps the *ledger-grade* version of that number: every
broadcast attributed to the vertex that sent it, the round it was sent
in, and the phase of the pipeline it belongs to (``broadcast`` for BCC
rounds, ``simulate``/``decision`` for the two-party Section 4.3
simulation). That attribution is what the symbolic cost calculus checks
against -- a closed form like ``2nW`` is a statement about *who* sends
*how much* *when*, not just a grand total.

A ledger is **opt-in**, installed process-wide with :func:`use_ledger`
(or passed to ``Simulator(costs=...)``) and resolved once per run. In
the round engine it is one observer on the run-event stream
(:mod:`repro.core.observers`): each round record is charged with
:meth:`CostLedger.record_round`, and the run-end record gets its
:func:`run_cost_summary`. With no sink installed each hook costs one
empty-tuple check. Silence is first-class:
a silent broadcast (the paper's ⊥, encoded as the empty string) counts
**0 bits** and one silent round for its vertex -- and the rendered form
``"⊥"`` is likewise 0 bits, so a ledger fed from a rendered transcript
(replay tooling, fault reports) can never inflate a crashed vertex's
spend by the width of the silence glyph.

The module is dependency-free of ``repro.core`` so the simulator can
import it without cycles; :func:`run_cost_summary` therefore duck-types
its transcripts (anything with ``bits_sent()`` / ``silence_count()``).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.obs.metrics import ProcessSink

__all__ = [
    "DEFAULT_PHASE",
    "CostLedger",
    "cost_summary_from_broadcasts",
    "get_ledger",
    "message_cost_bits",
    "run_cost_summary",
    "set_ledger",
    "use_ledger",
]

#: The phase the simulator's own broadcasts are charged to.
DEFAULT_PHASE = "broadcast"

#: Zero-cost encodings of silence: the on-channel empty broadcast and
#: its rendered ⊥ form (mirrors repro.core.model.SILENT / SILENT_CHAR;
#: duplicated as literals so this module stays core-import-free).
_SILENT_FORMS = ("", "⊥")

Vertex = Union[int, str]


def message_cost_bits(message: str) -> int:
    """Channel cost of one broadcast: silence (raw or rendered ⊥) is 0."""
    return 0 if message in _SILENT_FORMS else len(message)


class CostLedger:
    """Thread-safe accumulator of measured bits per (vertex, round, phase).

    Like a :class:`~repro.obs.metrics.MetricsRegistry`, an installed
    ledger accumulates across every run executed while it is active --
    the per-run view lives on ``RunResult.cost_summary`` (see
    :func:`run_cost_summary`).
    """

    __slots__ = ("_lock", "_bits", "_silences")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (vertex, round, phase) -> accumulated bits
        self._bits: Dict[Tuple[Vertex, int, str], int] = {}
        #: vertex -> silent broadcasts observed
        self._silences: Dict[Vertex, int] = {}

    # -- recording ------------------------------------------------------
    def record(
        self, vertex: Vertex, round_index: int, message: str, phase: str = DEFAULT_PHASE
    ) -> None:
        """Charge one broadcast message to (vertex, round, phase)."""
        bits = message_cost_bits(message)
        with self._lock:
            if bits:
                key = (vertex, round_index, phase)
                self._bits[key] = self._bits.get(key, 0) + bits
            else:
                self._silences[vertex] = self._silences.get(vertex, 0) + 1
                # a silent round still creates the (vertex, round) cell so
                # per-round/per-vertex breakdowns show 0, not absence
                self._bits.setdefault((vertex, round_index, phase), 0)

    def record_bits(
        self, vertex: Vertex, round_index: int, bits: int, phase: str = DEFAULT_PHASE
    ) -> None:
        """Charge a raw bit count (for callers that never go silent,
        e.g. two-party protocol turns)."""
        if bits < 0:
            raise ValueError(f"cannot record {bits} bits (negative)")
        with self._lock:
            key = (vertex, round_index, phase)
            self._bits[key] = self._bits.get(key, 0) + bits

    def record_round(
        self, round_index: int, messages: Sequence[str], phase: str = DEFAULT_PHASE
    ) -> None:
        """Charge one simulator round: ``messages[v]`` is vertex v's
        broadcast (the simulator's hot-path entry point)."""
        for vertex, message in enumerate(messages):
            self.record(vertex, round_index, message, phase)

    # -- aggregation ----------------------------------------------------
    def total_bits(self) -> int:
        with self._lock:
            return sum(self._bits.values())

    def rounds(self) -> int:
        """The highest round index charged (0 for an empty ledger)."""
        with self._lock:
            return max((key[1] for key in self._bits), default=0)

    def bits_by_vertex(self) -> Dict[Vertex, int]:
        out: Dict[Vertex, int] = {}
        with self._lock:
            for (vertex, _t, _phase), bits in self._bits.items():
                out[vertex] = out.get(vertex, 0) + bits
        return out

    def bits_by_round(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        with self._lock:
            for (_vertex, t, _phase), bits in self._bits.items():
                out[t] = out.get(t, 0) + bits
        return out

    def bits_by_phase(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._lock:
            for (_vertex, _t, phase), bits in self._bits.items():
                out[phase] = out.get(phase, 0) + bits
        return out

    def silence_by_vertex(self) -> Dict[Vertex, int]:
        with self._lock:
            return dict(self._silences)

    # -- export ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A JSON-ready summary: totals plus per-vertex / per-phase rows.

        Vertices are rendered as strings (simulator indices and party
        names like ``"alice"`` share one namespace in JSON).
        """
        per_vertex = self.bits_by_vertex()
        silences = self.silence_by_vertex()
        return {
            "total_bits": self.total_bits(),
            "rounds": self.rounds(),
            "per_vertex": [
                {
                    "vertex": str(vertex),
                    "bits": per_vertex.get(vertex, 0),
                    "silent_rounds": silences.get(vertex, 0),
                }
                for vertex in sorted(
                    set(per_vertex) | set(silences), key=lambda v: (isinstance(v, str), v)
                )
            ],
            "per_phase": {
                phase: bits for phase, bits in sorted(self.bits_by_phase().items())
            },
        }

    def population(self) -> Dict[str, Dict[str, Any]]:
        """Mergeable population sketches over the ledger's cells.

        Serialized sketch states (see :mod:`repro.obs.sketches`):
        ``"cell_bits"`` -- quantile sketch over every (vertex, round,
        phase) cell's bit count; ``"phase_bits"`` / ``"vertex_bits"`` --
        top-k sketches weighting phases and vertices by the bits they
        carried. The result is a pure function of the ledger's cell
        multiset: build per-shard populations and fold them with
        :func:`repro.obs.sketches.merge_population` when the shards
        charge *disjoint* cells (as the sharded sweeps do), or
        :meth:`merge` the ledgers first and take one population when
        cells may overlap.
        """
        # Lazy: only population summaries need the sketches.
        from repro.obs.sketches import QuantileSketch, TopKSketch

        cell_bits = QuantileSketch()
        phase_bits = TopKSketch()
        vertex_bits = TopKSketch()
        with self._lock:
            cells = list(self._bits.items())
        for (vertex, _t, phase), bits in cells:
            cell_bits.update(float(bits))
            if bits:
                phase_bits.update(phase, bits)
                vertex_bits.update(str(vertex), bits)
        return {
            "cell_bits": cell_bits.to_dict(),
            "phase_bits": phase_bits.to_dict(),
            "vertex_bits": vertex_bits.to_dict(),
        }

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's cells into this one (associative)."""
        with other._lock:
            bits = dict(other._bits)
            silences = dict(other._silences)
        with self._lock:
            for key, value in bits.items():
                self._bits[key] = self._bits.get(key, 0) + value
            for vertex, count in silences.items():
                self._silences[vertex] = self._silences.get(vertex, 0) + count

    def reset(self) -> None:
        with self._lock:
            self._bits.clear()
            self._silences.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._bits)


def run_cost_summary(transcripts: Sequence[Any], rounds_executed: int) -> Dict[str, Any]:
    """The per-run cost summary attached to ``RunResult.cost_summary``
    and emitted as the trace-v4 ``cost_summary`` event.

    ``transcripts`` is anything with ``bits_sent()`` and
    ``silence_count()`` (duck-typed to keep this module free of
    ``repro.core`` imports).
    """
    per_vertex: List[Dict[str, Any]] = []
    total = 0
    for vertex, transcript in enumerate(transcripts):
        bits = transcript.bits_sent()
        total += bits
        per_vertex.append(
            {
                "vertex": str(vertex),
                "bits": bits,
                "silent_rounds": transcript.silence_count(),
            }
        )
    return {"total_bits": total, "rounds": rounds_executed, "per_vertex": per_vertex}


def cost_summary_from_broadcasts(
    history: Sequence[Sequence[str]],
) -> Dict[str, Any]:
    """Rebuild a run's cost summary from recorded per-round broadcasts.

    ``history[t][v]`` is vertex v's broadcast in the (t+1)-th executed
    round -- exactly the ``broadcasts`` field of a session log's ``step``
    events (:mod:`repro.replay`). Costs are charged with
    :func:`message_cost_bits`, the same rule live transcripts use (both
    silence encodings are 0 bits), so for any run the rebuilt summary
    equals ``RunResult.cost_summary`` *by construction* -- which is what
    lets ``repro report --session`` assert cost parity between a recorded
    session and its recorded result without re-executing anything.
    """
    n = len(history[0]) if history else 0
    bits = [0] * n
    silences = [0] * n
    for messages in history:
        for vertex, message in enumerate(messages):
            cost = message_cost_bits(message)
            bits[vertex] += cost
            if cost == 0 and message in _SILENT_FORMS:
                silences[vertex] += 1
    return {
        "total_bits": sum(bits),
        "rounds": len(history),
        "per_vertex": [
            {
                "vertex": str(vertex),
                "bits": bits[vertex],
                "silent_rounds": silences[vertex],
            }
            for vertex in range(n)
        ],
    }


_ledger = ProcessSink()
#: The installed :class:`CostLedger` (None: cost accounting is off).
get_ledger, set_ledger, use_ledger = _ledger.get, _ledger.set, _ledger.use
