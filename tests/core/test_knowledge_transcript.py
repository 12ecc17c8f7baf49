"""Direct tests for InitialKnowledge and Transcript primitives.

The simulator stores each transcript as two columns (``sent`` and
``received``). ``TestColumnStore`` rebuilds, from the rows a run actually
delivered, the one-``RoundRecord``-per-vertex-per-round transcripts of the
per-record engine and requires the columns to read the same.
``golden/kt0_faulted_comparable.json`` holds a faulted KT-0 run's
per-vertex ``comparable()`` as that per-record engine wrote it; rewrite it
only after an intended change, with::

    PYTHONPATH=src python tests/core/test_knowledge_transcript.py
"""

import json
import random
from pathlib import Path

import pytest

from repro.algorithms.neighbor_exchange import connectivity_factory
from repro.core import (
    BCC1_KT0,
    InitialKnowledge,
    PublicCoin,
    RoundRecord,
    Simulator,
    Transcript,
    sent_label,
)
from repro.instances import one_cycle_instance
from repro.net import NetworkManager, NetworkPlan
from repro.resilience import FaultPlan
from repro.resilience.harness import HARNESS_ALGORITHMS

KT0_GOLDEN = Path(__file__).parent / "golden" / "kt0_faulted_comparable.json"


def _knowledge(kt=0, **overrides):
    base = dict(
        vertex_id=3,
        n=5,
        bandwidth=1,
        kt=kt,
        ports=(1, 2, 3, 4),
        input_ports=frozenset({1, 4}),
        all_ids=None if kt == 0 else (0, 1, 2, 3, 4),
        coin=PublicCoin(),
    )
    base.update(overrides)
    return InitialKnowledge(**base)


class TestInitialKnowledge:
    def test_kt0_must_not_have_ids(self):
        with pytest.raises(ValueError):
            _knowledge(kt=0, all_ids=(0, 1, 2, 3, 4))

    def test_kt1_must_have_ids(self):
        with pytest.raises(ValueError):
            _knowledge(kt=1, all_ids=None)

    def test_input_degree(self):
        assert _knowledge().input_degree == 2

    def test_neighbor_ids_kt1_only(self):
        k = _knowledge(kt=1)
        assert k.neighbor_ids() == frozenset({1, 4})
        with pytest.raises(ValueError):
            _knowledge(kt=0).neighbor_ids()

    def test_comparable_view_excludes_coin(self):
        a = _knowledge(coin=PublicCoin("a"))
        b = _knowledge(coin=PublicCoin("b"))
        assert a.comparable_view() == b.comparable_view()

    def test_comparable_view_sees_input_ports(self):
        a = _knowledge()
        b = _knowledge(input_ports=frozenset({2, 3}))
        assert a.comparable_view() != b.comparable_view()

    def test_frozen(self):
        with pytest.raises(Exception):
            _knowledge().n = 7  # type: ignore[misc]


class TestTranscript:
    @staticmethod
    def _transcript():
        t = Transcript()
        t.append(RoundRecord(sent="1", received={1: "0", 2: ""}))
        t.append(RoundRecord(sent="", received={1: "1", 2: "1"}))
        t.append(RoundRecord(sent="0", received={1: "", 2: "0"}))
        return t

    def test_rounds_and_records(self):
        t = self._transcript()
        assert t.rounds == len(t) == 3
        assert t.record(2).sent == ""
        with pytest.raises(IndexError):
            t.record(0)
        with pytest.raises(IndexError):
            t.record(4)

    def test_sent_sequence_and_string(self):
        t = self._transcript()
        assert t.sent_sequence() == ("1", "", "0")
        assert t.sent_string() == "1⊥0"

    def test_bit_accounting(self):
        t = self._transcript()
        assert t.bits_sent() == 2
        assert t.bits_received() == 4

    def test_comparable_prefix(self):
        t = self._transcript()
        assert t.prefix_comparable(2) == t.comparable()[:2]
        assert len(t.prefix_comparable(99)) == 3

    def test_received_key_canonical(self):
        a = RoundRecord(sent="1", received={2: "0", 1: "1"})
        b = RoundRecord(sent="1", received={1: "1", 2: "0"})
        assert a.received_key() == b.received_key()
        assert a.comparable() == b.comparable()

    def test_sent_label(self):
        head = Transcript()
        head.append(RoundRecord(sent="1", received={}))
        head.append(RoundRecord(sent="", received={}))
        tail = Transcript()
        tail.append(RoundRecord(sent="0", received={}))
        tail.append(RoundRecord(sent="0", received={}))
        assert sent_label(head, tail) == "1⊥00"


    def test_append_fills_the_columns(self):
        t = self._transcript()
        assert t.sent == ["1", "", "0"]
        assert t.received[1] == {1: "1", 2: "1"}
        assert t.record(3) == RoundRecord(sent="0", received={1: "", 2: "0"})


# ---------------------------------------------------------------------------
# the simulator's column store
# ---------------------------------------------------------------------------
N = 8
PLANS = {
    "clean": {},
    "faults": {
        "faults": FaultPlan(seed=7, bit_flip_rate=0.05, erasure_rate=0.05, crash_rate=0.02)
    },
    "network": {
        "network": NetworkPlan(seed=11, max_delay=2, duplicate_rate=0.2, reorder=True)
    },
}


def _kt0_case():
    """Neighbor exchange on a KT-0 cycle with shuffled port numbers."""
    instance = one_cycle_instance(N, kt=0, rng=random.Random(3))
    return Simulator(BCC1_KT0), instance, connectivity_factory(), 15


def _kt1_case():
    """The deterministic sketch algorithm that ``fault-sweep`` runs (KT-1)."""
    spec = HARNESS_ALGORITHMS["sketch"]
    instance = one_cycle_instance(N, kt=1)
    return Simulator(spec.model(N)), instance, spec.factory(N), spec.rounds(N)


def _kt0_faulted_run():
    simulator, instance, factory, rounds = _kt0_case()
    return simulator.run(instance, factory, rounds, **PLANS["faults"])


def _comparable_payload(result):
    return json.loads(
        json.dumps(
            {
                "n": N,
                "rounds_executed": result.rounds_executed,
                "comparable": [tr.comparable() for tr in result.transcripts],
            }
        )
    )


def _per_record_transcripts(instance, result, delivered):
    """Each vertex's transcript as one ``RoundRecord`` per round, built the
    way the per-record engine built it: ``received`` maps the port of every
    other vertex, sender ascending, to the row the vertex was delivered
    (the broadcasts themselves when no delivery pipeline ran)."""
    n = instance.n
    transcripts = []
    for v in range(n):
        transcript = Transcript()
        for t, messages in enumerate(result.broadcast_history):
            row = delivered[t][v] if delivered else messages
            received = {instance.port_to_peer(v, u): row[u] for u in range(n) if u != v}
            transcript.append(RoundRecord(sent=messages[v], received=received))
        transcripts.append(transcript)
    return transcripts


class TestColumnStore:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("case", [_kt0_case, _kt1_case], ids=["kt0", "kt1"])
    def test_columns_read_like_per_record_transcripts(self, case, plan, monkeypatch):
        delivered = []
        deliver_round = NetworkManager.deliver_round

        def recording(self, t, messages):
            rows = deliver_round(self, t, messages)
            delivered.append([tuple(row) for row in rows])
            return rows

        monkeypatch.setattr(NetworkManager, "deliver_round", recording)
        simulator, instance, factory, rounds = case()
        result = simulator.run(instance, factory, rounds, **PLANS[plan])
        assert bool(delivered) == (plan != "clean")
        expected = _per_record_transcripts(instance, result, delivered)
        for got, want in zip(result.transcripts, expected):
            assert got.rounds == want.rounds == result.rounds_executed
            assert got.comparable() == want.comparable()
            assert got.sent_string() == want.sent_string()
            assert got.bits_received() == want.bits_received()
            # same keys, in the same (sender-ascending) order
            assert [list(r) for r in got.received] == [list(r) for r in want.received]

    def test_kt0_faulted_run_matches_golden(self):
        result = _kt0_faulted_run()
        assert result.fault_events  # the plan really fired
        assert _comparable_payload(result) == json.loads(KT0_GOLDEN.read_text())


if __name__ == "__main__":
    KT0_GOLDEN.parent.mkdir(exist_ok=True)
    payload = _comparable_payload(_kt0_faulted_run())
    vertices = ",\n  ".join(json.dumps(rounds) for rounds in payload.pop("comparable"))
    head = json.dumps(payload)[:-1]
    KT0_GOLDEN.write_text(f'{head}, "comparable": [\n  {vertices}\n]}}\n')
