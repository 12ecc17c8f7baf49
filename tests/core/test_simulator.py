"""Tests for the synchronous round engine."""

import io
import random
from collections.abc import Mapping

import pytest

from repro.core import (
    BCC1_KT0,
    BCC1_KT1,
    BCCInstance,
    BCCModel,
    ConstantAlgorithm,
    FunctionalAlgorithm,
    NO,
    NodeAlgorithm,
    PublicCoin,
    SilentAlgorithm,
    Simulator,
    YES,
    decision_of_run,
)
from repro.core.transcript import RoundRecord
from repro.errors import AlgorithmContractError, SimulationError
from repro.graphs import one_cycle, two_cycles
from repro.instances import one_cycle_instance
from repro.replay import SessionStore
from repro.resilience import FaultPlan
from repro.resilience.harness import HARNESS_ALGORITHMS


class EchoDegree(NodeAlgorithm):
    """Broadcasts '1' iff this vertex has input degree 2; collects messages."""

    def setup(self, knowledge):
        super().setup(knowledge)
        self.seen = []

    def broadcast(self, round_index):
        return "1" if self.knowledge.input_degree == 2 else "0"

    def receive(self, round_index, messages):
        self.seen.append(dict(messages))

    def output(self):
        return YES


class TestRunBasics:
    def test_zero_rounds(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run(inst, SilentAlgorithm, 0)
        assert res.rounds_executed == 0
        assert res.broadcast_history == ()
        assert decision_of_run(res) == YES

    def test_transcripts_align_with_history(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(5))
        res = Simulator(BCC1_KT0).run(inst, EchoDegree, 3)
        assert res.rounds_executed == 3
        for v in range(5):
            assert res.transcripts[v].rounds == 3
            for t in range(1, 4):
                assert res.transcripts[v].record(t).sent == res.broadcast_history[t - 1][v]

    def test_messages_routed_by_port(self):
        inst = BCCInstance.kt1_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT1).run(inst, EchoDegree, 1)
        # in KT-1 the port label is the sender's ID
        rec = res.transcripts[0].record(1).received
        assert set(rec.keys()) == {1, 2, 3}
        assert all(m == "1" for m in rec.values())

    def test_every_vertex_hears_n_minus_1(self):
        inst = BCCInstance.kt0_from_graph(two_cycles(8, 4))
        res = Simulator(BCC1_KT0).run(inst, ConstantAlgorithm, 2)
        for v in range(8):
            assert len(res.transcripts[v].record(1).received) == 7

    def test_public_coin_shared(self):
        captured = []

        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: str(self.knowledge.coin.bit("r1")),
                receive=lambda self, t, m: captured.append(sorted(m.values())),
                output=lambda self: YES,
            )

        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run(inst, factory, 1, coin=PublicCoin("x"))
        # all vertices drew the same public bit
        assert len(set(res.broadcast_history[0])) == 1

    def test_same_coin_reproducible(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))

        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: str(self.knowledge.coin.bit(f"r{t}")),
                receive=lambda self, t, m: None,
                output=lambda self: YES,
            )

        sim = Simulator(BCC1_KT0)
        r1 = sim.run(inst, factory, 4, coin=PublicCoin("seed-a"))
        r2 = sim.run(inst, factory, 4, coin=PublicCoin("seed-a"))
        assert r1.broadcast_history == r2.broadcast_history


class TestContracts:
    def test_kt_mismatch(self):
        inst = BCCInstance.kt1_from_graph(one_cycle(4))
        with pytest.raises(SimulationError):
            Simulator(BCC1_KT0).run(inst, SilentAlgorithm, 1)

    def test_negative_rounds(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        with pytest.raises(SimulationError):
            Simulator(BCC1_KT0).run(inst, SilentAlgorithm, -1)

    def test_bandwidth_enforced(self):
        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: "01",
                receive=lambda self, t, m: None,
                output=lambda self: YES,
            )

        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        with pytest.raises(AlgorithmContractError):
            Simulator(BCC1_KT0).run(inst, factory, 1)

    @pytest.mark.parametrize("bad", ["01", "2", ["1"], 1, None], ids=repr)
    def test_bad_broadcast_after_the_same_good_ones_raises(self, bad):
        """Validated broadcasts are not validated again, but a new one is:
        every invalid value, non-str ones included, raises as it would in
        round 1, and under faults it fail-stops its sender."""

        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: bad if t == 3 and self.knowledge.vertex_id == 0 else "1",
                receive=lambda self, t, m: None,
                output=lambda self: YES,
            )

        inst = BCCInstance.kt1_from_graph(one_cycle(4))
        with pytest.raises(AlgorithmContractError) as expected:
            BCC1_KT1.validate_message(bad)
        with pytest.raises(AlgorithmContractError) as raised:
            Simulator(BCC1_KT1).run(inst, factory, 4)
        assert str(raised.value) == str(expected.value)
        res = Simulator(BCC1_KT1).run(inst, factory, 4, faults=FaultPlan(seed=1))
        assert res.failed_vertices == (0,)
        assert [m[0] for m in res.broadcast_history] == ["1", "1", "", ""]

    def test_knowledge_hides_global_ids_in_kt0(self):
        seen = {}

        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: seen.setdefault("k", self.knowledge) and "",
                receive=lambda self, t, m: None,
                output=lambda self: YES,
            )

        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        Simulator(BCC1_KT0).run(inst, factory, 1)
        assert seen["k"].all_ids is None
        assert seen["k"].kt == 0

    def test_knowledge_exposes_ids_in_kt1(self):
        sim = Simulator(BCC1_KT1)
        inst = BCCInstance.kt1_from_graph(one_cycle(4), ids=[7, 8, 9, 10])
        k = sim.initial_knowledge(inst, 2, PublicCoin())
        assert k.all_ids == (7, 8, 9, 10)
        assert k.vertex_id == 9
        assert k.neighbor_ids() == frozenset({8, 10})


class TestEarlyTermination:
    @staticmethod
    def _stops_after(k):
        class StopsAfter(NodeAlgorithm):
            def setup(self, knowledge):
                super().setup(knowledge)
                self.rounds_seen = 0

            def broadcast(self, t):
                return "1"

            def receive(self, t, messages):
                self.rounds_seen += 1

            def finished(self):
                return self.rounds_seen >= k

            def output(self):
                return YES

        return StopsAfter

    def test_stops_early(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run(inst, self._stops_after(2), 10)
        assert res.rounds_executed == 2
        assert res.all_finished

    def test_run_until_done_ok(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run_until_done(inst, self._stops_after(3), 5)
        assert res.rounds_executed == 3

    def test_run_until_done_raises_on_budget(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        with pytest.raises(SimulationError):
            Simulator(BCC1_KT0).run_until_done(inst, self._stops_after(9), 5)


class TestAccounting:
    def test_bits_counted(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(5))
        res = Simulator(BCC1_KT0).run(inst, ConstantAlgorithm, 3)
        assert res.total_bits_broadcast() == 5 * 3
        assert res.transcripts[0].bits_sent() == 3
        assert res.transcripts[0].bits_received() == 4 * 3

    def test_silent_bits_zero(self):
        inst = BCCInstance.kt0_from_graph(one_cycle(5))
        res = Simulator(BCC1_KT0).run(inst, SilentAlgorithm, 3)
        assert res.total_bits_broadcast() == 0

    def test_decision_no(self):
        def factory():
            return FunctionalAlgorithm(
                broadcast=lambda self, t: "",
                receive=lambda self, t, m: None,
                output=lambda self: NO if self.knowledge.vertex_id == 0 else YES,
            )

        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run(inst, factory, 1)
        assert decision_of_run(res) == NO


class _Raises(NodeAlgorithm):
    """Vertex index 0 raises from the named hook once round 1 is under way."""

    hook = "receive"

    def setup(self, knowledge):
        super().setup(knowledge)
        self.raises = knowledge.vertex_id == 0
        self.started = False

    def _maybe_raise(self, name):
        if self.raises and self.started and name == self.hook:
            raise RuntimeError(f"{name} failed")

    def broadcast(self, t):
        self.started = True
        self._maybe_raise("broadcast")
        return "1"

    def receive(self, t, messages):
        self._maybe_raise("receive")

    def finished(self):
        self._maybe_raise("finished")
        return False

    def output(self):
        self._maybe_raise("output")
        return YES


class TestNodeExceptions:
    """Clean runs propagate node exceptions; adversarial runs fail-stop."""

    HOOKS = ["broadcast", "receive", "finished", "output"]

    @staticmethod
    def _factory(hook):
        return type(f"Raises_{hook}", (_Raises,), {"hook": hook})

    @pytest.mark.parametrize("hook", HOOKS)
    def test_clean_run_propagates(self, hook):
        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        with pytest.raises(RuntimeError, match=f"{hook} failed"):
            Simulator(BCC1_KT0).run(inst, self._factory(hook), 2)

    @pytest.mark.parametrize("hook", HOOKS)
    def test_adversarial_run_fail_stops_the_node(self, hook):
        from repro.resilience import FaultPlan

        inst = BCCInstance.kt0_from_graph(one_cycle(4))
        res = Simulator(BCC1_KT0).run(inst, self._factory(hook), 2, faults=FaultPlan())
        assert res.failed_vertices == (0,)
        assert res.outputs == (None, YES, YES, YES)
        assert res.rounds_executed == 2
        # a failed node is silent from the next broadcast on
        expected = {"broadcast": ("", ""), "output": ("1", "1")}.get(hook, ("1", ""))
        assert tuple(messages[0] for messages in res.broadcast_history) == expected


def test_port_table_is_built_once_per_run(monkeypatch):
    calls = []
    original = BCCInstance.port_to_peer

    def counting(self, v, u):
        calls.append((v, u))
        return original(self, v, u)

    monkeypatch.setattr(BCCInstance, "port_to_peer", counting)
    inst = BCCInstance.kt1_from_graph(one_cycle(5))
    Simulator(BCC1_KT1).run(inst, EchoDegree, 6)
    assert sorted(calls) == [(v, u) for v in range(5) for u in range(5) if u != v]


class KeepsMaps(NodeAlgorithm):
    """Keeps every received map object itself, not a copy."""

    def setup(self, knowledge):
        super().setup(knowledge)
        self.maps = []

    def broadcast(self, round_index):
        return "1" if (self.knowledge.vertex_id + round_index) % 3 else "0"

    def receive(self, round_index, messages):
        self.maps.append(messages)

    def output(self):
        return YES


class TestReceiveMaps:
    """Each receiver gets its own map: keys are its ports to the other
    vertices, sender ascending, whether the map was copied from the
    round's shared KT-1 map or built port by port."""

    INSTANCES = {
        # IDs out of index order, so sender order differs from ID order
        "kt1": (BCC1_KT1, BCCInstance.kt1_from_graph(one_cycle(5), ids=[40, 3, 17, 9, 25])),
        "kt0": (BCC1_KT0, BCCInstance.kt0_from_graph(one_cycle(5), rng=random.Random(1))),
    }

    @pytest.mark.parametrize(
        "faults", [None, FaultPlan(seed=2, erasure_rate=0.3)], ids=["clean", "faults"]
    )
    @pytest.mark.parametrize("kt", sorted(INSTANCES))
    def test_distinct_maps_in_sender_order(self, kt, faults):
        model, inst = self.INSTANCES[kt]
        nodes = []

        def factory():
            nodes.append(KeepsMaps())
            return nodes[-1]

        res = Simulator(model).run(inst, factory, 4, faults=faults)
        n = inst.n
        for t in range(4):
            maps = [node.maps[t] for node in nodes]
            assert len({id(m) for m in maps}) == n
            for v, received in enumerate(maps):
                assert isinstance(received, Mapping)
                assert list(received) == [inst.port_to_peer(v, u) for u in range(n) if u != v]
                assert received is res.transcripts[v].received[t]
        if faults is None:
            for v, node in enumerate(nodes):
                assert list(node.maps[0].values()) == [
                    res.broadcast_history[0][u] for u in range(n) if u != v
                ]

    @pytest.mark.parametrize("kt", sorted(INSTANCES))
    def test_mutating_one_map_leaves_the_others(self, kt):
        model, inst = self.INSTANCES[kt]
        nodes = []

        def factory():
            nodes.append(KeepsMaps())
            return nodes[-1]

        Simulator(model).run(inst, factory, 2)
        before = [[dict(m) for m in node.maps] for node in nodes]
        nodes[0].maps[0].clear()
        nodes[1].maps[0][-1] = "mutated"
        for v in range(2, inst.n):
            assert [dict(m) for m in nodes[v].maps] == before[v]
        assert [dict(m) for m in nodes[0].maps[1:]] == before[0][1:]


def _counting_records(monkeypatch):
    """Count every ``RoundRecord`` constructed from here on."""
    built = []
    init = RoundRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RoundRecord, "__init__", counting)
    return built


def _sketch_run(n=8, session=None):
    spec = HARNESS_ALGORITHMS["sketch"]
    return Simulator(spec.model(n)).run(
        one_cycle_instance(n, kt=1), spec.factory(n), spec.rounds(n), session=session
    )


def test_kt1_sketch_run_builds_no_round_records(monkeypatch):
    """Counts only, no timing: the engine writes columns, looks each port
    up once per run, and leaves ``RoundRecord`` to the readers."""
    built = _counting_records(monkeypatch)
    calls = []
    original = BCCInstance.port_to_peer

    def counting(self, v, u):
        calls.append((v, u))
        return original(self, v, u)

    monkeypatch.setattr(BCCInstance, "port_to_peer", counting)
    res = _sketch_run()
    assert res.all_finished and res.rounds_executed > 100
    assert built == []
    assert len(calls) == 8 * 7
    res.transcripts[3].record(5)
    assert len(built) == 1


def test_session_recording_builds_one_record_per_vertex_round(monkeypatch):
    built = _counting_records(monkeypatch)
    store = SessionStore(io.StringIO(), run_id="fixed")
    store.start("run", {})
    res = _sketch_run(session=store)
    store.finish()
    assert len(built) == 8 * res.rounds_executed
