"""Tests for the deterministic fault-injection layer."""

import inspect
import io

import pytest

from repro.core import BCC1_KT0, BCC1_KT1, Simulator
from repro.algorithms import connectivity_factory
from repro.errors import FaultInjectionError
from repro.instances import one_cycle_instance
from repro.obs import RunTrace, read_trace, validate_trace_events
from repro.resilience import FAULT_KINDS, FaultEvent, FaultPlan, ScheduledFault


def _run(n=8, plan=None, rounds=8, kt=1):
    inst = one_cycle_instance(n, kt=kt)
    model = BCC1_KT1 if kt else BCC1_KT0
    sim = Simulator(model, faults=plan)
    return sim.run(inst, connectivity_factory(max_degree=2), rounds)


class TestFaultEventRecord:
    """The record contract traces, sessions and results rely on."""

    FIELDS = ("t", "kind", "vertex", "receiver", "original", "delivered", "scheduled")

    def test_fields_in_order_with_one_default(self):
        params = inspect.signature(FaultEvent).parameters
        assert tuple(params) == self.FIELDS
        defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
        assert defaults == {"scheduled": False}

    def test_positional_and_keyword_construction_agree(self):
        positional = FaultEvent(3, "bit_flip", 1, 2, "01", "00")
        keyword = FaultEvent(
            t=3, kind="bit_flip", vertex=1, receiver=2, original="01", delivered="00"
        )
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert positional.scheduled is False
        assert positional != FaultEvent(3, "bit_flip", 1, 2, "01", "00", True)
        assert positional != FaultEvent(3, "bit_flip", 1, 0, "01", "00")

    def test_as_dict_key_order(self):
        event = FaultEvent(1, "crash", 4, None, "1", "", True)
        assert list(event.as_dict()) == list(self.FIELDS)
        assert event.as_dict() == {
            "t": 1,
            "kind": "crash",
            "vertex": 4,
            "receiver": None,
            "original": "1",
            "delivered": "",
            "scheduled": True,
        }

    @pytest.mark.parametrize("name", FIELDS)
    def test_immutable(self, name):
        event = FaultEvent(1, "erasure", 0, 1, "1", "")
        with pytest.raises(AttributeError):
            setattr(event, name, 0)
        assert event == FaultEvent(1, "erasure", 0, 1, "1", "")


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(bit_flip_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(erasure_rate=-0.1)

    def test_scheduled_fault_kind_checked(self):
        with pytest.raises(FaultInjectionError):
            ScheduledFault(round_index=1, kind="meltdown", vertex=0)

    def test_scheduled_vertex_bounds_checked_at_run_start(self):
        plan = FaultPlan(scheduled=(ScheduledFault(1, "crash", vertex=99),))
        with pytest.raises(FaultInjectionError):
            plan.begin_run(8)

    def test_single_rate_constructor(self):
        plan = FaultPlan.single_rate("erasure", 0.25, seed=7)
        assert plan.erasure_rate == 0.25
        assert plan.bit_flip_rate == 0.0
        assert plan.crash_rate == 0.0

    def test_fault_kinds_constant(self):
        assert FAULT_KINDS == ("bit_flip", "erasure", "crash")


class TestDeterminism:
    def test_same_seed_bit_identical_runs(self):
        plan = FaultPlan(seed=11, bit_flip_rate=0.2, erasure_rate=0.1, crash_rate=0.05)
        a = _run(plan=plan)
        b = _run(plan=plan)
        assert a.outputs == b.outputs
        assert a.broadcast_history == b.broadcast_history
        assert a.crashed_vertices == b.crashed_vertices
        assert a.failed_vertices == b.failed_vertices
        assert [e.as_dict() for e in a.fault_events] == [
            e.as_dict() for e in b.fault_events
        ]

    def test_different_seed_differs(self):
        a = _run(plan=FaultPlan(seed=1, bit_flip_rate=0.3))
        b = _run(plan=FaultPlan(seed=2, bit_flip_rate=0.3))
        # fault events depend on the seed; the streams must not coincide
        assert [e.as_dict() for e in a.fault_events] != [
            e.as_dict() for e in b.fault_events
        ]

    def test_zero_rate_plan_equals_clean_run(self):
        clean = _run(plan=None)
        faulted = _run(plan=FaultPlan(seed=3))
        assert clean.outputs == faulted.outputs
        assert clean.broadcast_history == faulted.broadcast_history
        assert faulted.fault_events == ()
        assert faulted.crashed_vertices == ()

    def test_clean_run_has_empty_fault_fields(self):
        res = _run(plan=None)
        assert res.fault_events == ()
        assert res.crashed_vertices == ()
        assert res.failed_vertices == ()


class TestScheduledFaults:
    def test_scheduled_erasure_hits_one_receiver(self):
        plan = FaultPlan(
            scheduled=(ScheduledFault(1, "erasure", vertex=0, receiver=3),)
        )
        res = _run(plan=plan)
        kinds = [(e.t, e.kind, e.vertex, e.receiver) for e in res.fault_events]
        assert (1, "erasure", 0, 3) in kinds

    def test_scheduled_crash_silences_forever(self):
        plan = FaultPlan(scheduled=(ScheduledFault(1, "crash", vertex=2),))
        res = _run(plan=plan)
        assert 2 in res.crashed_vertices
        # from round 1 on, vertex 2's broadcast arrives as the empty string
        for t in range(len(res.broadcast_history)):
            assert res.broadcast_history[t][2] == ""

    def test_scheduled_bit_flip_out_of_range_raises(self):
        # vertex broadcasts are 1 bit wide in BCC(1); flipping bit 5 of a
        # 1-bit message is a configuration error, not a silent no-op
        plan = FaultPlan(
            scheduled=(ScheduledFault(1, "bit_flip", vertex=0, receiver=1, bit_index=5),)
        )
        inst = one_cycle_instance(8, kt=1)
        sim = Simulator(BCC1_KT1, faults=plan)
        with pytest.raises(FaultInjectionError):
            sim.run(inst, connectivity_factory(max_degree=2), 8)


class TestFailStop:
    def test_node_exception_under_faults_becomes_failure(self):
        # crashing vertex 0 in round 1 starves its cycle neighbors of the
        # ID-exchange bits; under fault injection that surfaces as failed
        # vertices (outputs None), never as a simulator crash
        plan = FaultPlan(scheduled=(ScheduledFault(1, "crash", vertex=0),), seed=5)
        inst = one_cycle_instance(8, kt=0)
        res = Simulator(BCC1_KT0, faults=plan).run(
            inst, connectivity_factory(max_degree=2), 8
        )
        assert 0 in res.crashed_vertices
        for v in res.failed_vertices:
            assert res.outputs[v] is None

    def test_max_crashes_cap_respected(self):
        plan = FaultPlan(seed=9, crash_rate=0.9, max_crashes=2)
        res = _run(plan=plan)
        assert len(res.crashed_vertices) <= 2


class TestFaultTraceIntegration:
    def test_fault_events_reach_the_trace_as_schema_v2(self):
        buf = io.StringIO()
        trace = RunTrace(buf)
        plan = FaultPlan(scheduled=(ScheduledFault(1, "erasure", vertex=0, receiver=3),))
        inst = one_cycle_instance(8, kt=1)
        Simulator(BCC1_KT1, trace=trace, faults=plan).run(
            inst, connectivity_factory(max_degree=2), 8
        )
        trace.close()
        events = read_trace(io.StringIO(buf.getvalue()))
        assert validate_trace_events(events) == []
        faults = [e for e in events if e["event"] == "fault"]
        assert faults and faults[0]["kind"] == "erasure"
        run_start = next(e for e in events if e["event"] == "run_start")
        assert "fault_seed" in run_start
        run_end = next(e for e in events if e["event"] == "run_end")
        assert run_end["faults_injected"] == len(faults)
