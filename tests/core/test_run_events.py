"""The run-event stream: the observer tuple and its hooks."""

import io

import pytest

from repro.core import SilentAlgorithm, Simulator
from repro.core.model import BCC1_KT0
from repro.core.observers import (
    BusObserver,
    CostObserver,
    MetricsObserver,
    SessionObserver,
    SpanObserver,
    TraceObserver,
    run_observers,
)
from repro.costs import CostLedger
from repro.instances import one_cycle_instance
from repro.obs import EventBus, MetricsRegistry, RunTrace, SpanRecorder, use_bus, use_recorder


class TestObserverTuple:
    def test_empty_without_sinks(self):
        assert run_observers() == ()

    def test_hook_order(self):
        with use_recorder(SpanRecorder()), use_bus(EventBus()):
            observers = run_observers(
                MetricsRegistry(), RunTrace(io.StringIO()), CostLedger(), session=object()
            )
        assert [type(o) for o in observers] == [
            SpanObserver,
            SessionObserver,
            TraceObserver,
            BusObserver,
            MetricsObserver,
            CostObserver,
        ]


class Explodes(SilentAlgorithm):
    def broadcast(self, round_index):
        if round_index == 2:
            raise RuntimeError("boom")
        return super().broadcast(round_index)


def test_a_raising_run_closes_its_spans():
    recorder = SpanRecorder()
    instance = one_cycle_instance(5, kt=0)
    simulator = Simulator(BCC1_KT0)
    with use_recorder(recorder):
        with pytest.raises(RuntimeError):
            simulator.run(instance, Explodes, 4)
        simulator.run(instance, SilentAlgorithm, 2)
    assert recorder.current is None
    assert [root.name for root in recorder.roots] == ["simulator.run"] * 2
    assert all(span.finished for root in recorder.roots for span in root.walk())
