"""Tests for the per-(vertex, round, phase) bit ledger (`repro.costs.ledger`).

Covers the ledger data structure itself, the opt-in module-global
contract (get/set/use), the simulator integration (`RunResult.
cost_summary`), and the crashed-vertex accounting fix: a crashed vertex
broadcasts the empty string / the ``⊥`` glyph, and both cost zero bits.
"""

import pytest

from repro.core import (
    SILENT,
    SILENT_CHAR,
    BCC1_KT0,
    ConstantAlgorithm,
    RoundRecord,
    SilentAlgorithm,
    Simulator,
    Transcript,
)
from repro.core.model import message_bits
from repro.costs import (
    DEFAULT_PHASE,
    CostLedger,
    get_ledger,
    message_cost_bits,
    run_cost_summary,
    set_ledger,
    use_ledger,
)
from repro.instances import one_cycle_instance
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import FaultPlan, ScheduledFault


class TestMessageCostBits:
    def test_silent_forms_cost_zero(self):
        assert message_cost_bits(SILENT) == 0
        assert message_cost_bits(SILENT_CHAR) == 0
        assert message_cost_bits("") == 0
        assert message_cost_bits("⊥") == 0

    def test_nonsilent_costs_its_length(self):
        assert message_cost_bits("0") == 1
        assert message_cost_bits("01") == 2
        assert message_cost_bits("010101") == 6

    def test_agrees_with_core_message_bits(self):
        for message in ("", "⊥", "0", "1", "0110"):
            assert message_cost_bits(message) == message_bits(message)


class TestCostLedger:
    def test_record_accumulates_bits(self):
        ledger = CostLedger()
        ledger.record(0, 1, "01")
        ledger.record(0, 2, "1")
        ledger.record(1, 1, "000")
        assert ledger.total_bits() == 6
        assert ledger.rounds() == 2
        assert ledger.bits_by_vertex() == {0: 3, 1: 3}
        assert ledger.bits_by_round() == {1: 5, 2: 1}

    def test_silent_record_counts_silence_and_keeps_the_cell(self):
        ledger = CostLedger()
        ledger.record(0, 1, SILENT)
        ledger.record(0, 2, SILENT_CHAR)
        assert ledger.total_bits() == 0
        assert ledger.silence_by_vertex() == {0: 2}
        # Silent rounds still show up as explicit 0-bit cells so a
        # per-round breakdown distinguishes "silent" from "not recorded".
        assert ledger.bits_by_round() == {1: 0, 2: 0}

    def test_record_bits_rejects_negative(self):
        ledger = CostLedger()
        with pytest.raises(ValueError, match="negative"):
            ledger.record_bits("alice", 1, -1)

    def test_record_round_enumerates_vertices(self):
        ledger = CostLedger()
        ledger.record_round(1, ["01", SILENT, "1"])
        assert ledger.bits_by_vertex() == {0: 2, 1: 0, 2: 1}
        assert ledger.silence_by_vertex() == {1: 1}

    def test_phases_are_kept_separate(self):
        ledger = CostLedger()
        ledger.record_bits("alice", 1, 4, phase="simulate")
        ledger.record_bits("alice", 0, 1, phase="decision")
        assert ledger.bits_by_phase() == {"decision": 1, "simulate": 4}
        assert ledger.total_bits() == 5
        assert DEFAULT_PHASE not in ledger.bits_by_phase()

    def test_summary_shape_and_ordering(self):
        ledger = CostLedger()
        ledger.record(2, 1, "11")
        ledger.record(0, 1, "0")
        ledger.record(1, 1, SILENT)
        summary = ledger.summary()
        assert summary["total_bits"] == 3
        assert summary["rounds"] == 1
        assert [entry["vertex"] for entry in summary["per_vertex"]] == ["0", "1", "2"]
        assert summary["per_vertex"][1] == {
            "vertex": "1",
            "bits": 0,
            "silent_rounds": 1,
        }
        assert summary["per_phase"] == {DEFAULT_PHASE: 3}

    def test_summary_sorts_int_vertices_before_names(self):
        ledger = CostLedger()
        ledger.record_bits("alice", 1, 2)
        ledger.record_bits(3, 1, 1)
        vertices = [entry["vertex"] for entry in ledger.summary()["per_vertex"]]
        assert vertices == ["3", "alice"]

    def test_merge_adds_cell_by_cell(self):
        left, right = CostLedger(), CostLedger()
        left.record(0, 1, "01")
        right.record(0, 1, "1")
        right.record(1, 2, SILENT)
        left.merge(right)
        assert left.total_bits() == 3
        assert left.bits_by_vertex() == {0: 3, 1: 0}
        assert left.silence_by_vertex() == {1: 1}
        assert left.rounds() == 2

    def test_reset_and_len(self):
        ledger = CostLedger()
        assert len(ledger) == 0
        ledger.record(0, 1, "01")
        ledger.record(1, 1, SILENT)
        assert len(ledger) == 2
        ledger.reset()
        assert len(ledger) == 0
        assert ledger.total_bits() == 0
        assert ledger.silence_by_vertex() == {}


class TestActiveLedgerContract:
    def test_default_is_none(self):
        assert get_ledger() is None

    def test_use_ledger_installs_and_restores(self):
        ledger = CostLedger()
        assert get_ledger() is None
        with use_ledger(ledger):
            assert get_ledger() is ledger
        assert get_ledger() is None

    def test_use_ledger_nests(self):
        outer, inner = CostLedger(), CostLedger()
        with use_ledger(outer):
            with use_ledger(inner):
                assert get_ledger() is inner
            assert get_ledger() is outer

    def test_use_ledger_accepts_none_as_disable(self):
        outer = CostLedger()
        with use_ledger(outer):
            with use_ledger(None):
                assert get_ledger() is None
            assert get_ledger() is outer

    def test_set_ledger_returns_previous(self):
        ledger = CostLedger()
        previous = set_ledger(ledger)
        try:
            assert previous is None
            assert get_ledger() is ledger
        finally:
            set_ledger(previous)
        assert get_ledger() is None


class TestSimulatorIntegration:
    def test_no_ledger_means_no_summary(self):
        result = Simulator(BCC1_KT0).run(
            one_cycle_instance(8, kt=0), ConstantAlgorithm, 3
        )
        assert result.cost_summary is None

    def test_ambient_ledger_attributes_every_bit(self):
        n, rounds = 8, 3
        ledger = CostLedger()
        with use_ledger(ledger):
            result = Simulator(BCC1_KT0).run(
                one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds
            )
        assert ledger.total_bits() == n * rounds
        assert ledger.total_bits() == result.total_bits_broadcast()
        summary = result.cost_summary
        assert summary is not None
        assert summary["total_bits"] == n * rounds
        assert summary["rounds"] == rounds
        assert len(summary["per_vertex"]) == n
        assert all(entry["bits"] == rounds for entry in summary["per_vertex"])

    def test_constructor_ledger_wins_over_ambient(self):
        pinned, ambient = CostLedger(), CostLedger()
        sim = Simulator(BCC1_KT0, costs=pinned)
        with use_ledger(ambient):
            sim.run(one_cycle_instance(6, kt=0), ConstantAlgorithm, 2)
        assert pinned.total_bits() == 12
        assert ambient.total_bits() == 0

    def test_silent_algorithm_ledgers_zero_bits(self):
        n, rounds = 6, 2
        ledger = CostLedger()
        with use_ledger(ledger):
            result = Simulator(BCC1_KT0).run(
                one_cycle_instance(n, kt=0), SilentAlgorithm, rounds
            )
        assert ledger.total_bits() == 0
        assert result.cost_summary["total_bits"] == 0
        assert ledger.silence_by_vertex() == {v: rounds for v in range(n)}
        assert all(
            entry["silent_rounds"] == rounds
            for entry in result.cost_summary["per_vertex"]
        )

    def test_ledger_accumulates_across_runs_but_summary_is_per_run(self):
        n, rounds = 6, 2
        ledger = CostLedger()
        sim = Simulator(BCC1_KT0)
        with use_ledger(ledger):
            first = sim.run(one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds)
            second = sim.run(one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds)
        assert ledger.total_bits() == 2 * n * rounds
        assert first.cost_summary["total_bits"] == n * rounds
        assert second.cost_summary["total_bits"] == n * rounds


class TestCrashedVertexAccounting:
    """Satellite fix: crashed vertices must stop costing bits.

    A crash-stopped vertex's broadcast is replaced by the empty string
    from its crash round onward; the ledger, the transcript totals, and
    the metrics counter must all agree that those rounds cost 0 bits.
    """

    CRASH_ROUND = 2
    CRASH_VERTEX = 0

    def _run(self, rounds=4, n=8):
        plan = FaultPlan(
            scheduled=(
                ScheduledFault(
                    round_index=self.CRASH_ROUND,
                    kind="crash",
                    vertex=self.CRASH_VERTEX,
                ),
            )
        )
        ledger = CostLedger()
        registry = MetricsRegistry()
        with use_ledger(ledger), use_registry(registry):
            result = Simulator(BCC1_KT0).run(
                one_cycle_instance(n, kt=0), ConstantAlgorithm, rounds, faults=plan
            )
        return result, ledger, registry

    def test_ledger_transcript_and_metrics_agree(self):
        result, ledger, registry = self._run()
        assert self.CRASH_VERTEX in result.crashed_vertices
        transcript_total = result.total_bits_broadcast()
        counter = registry.counter("simulator.bits_broadcast").value
        assert ledger.total_bits() == transcript_total == counter

    def test_crashed_vertex_bits_freeze_at_the_crash_round(self):
        rounds, n = 4, 8
        result, ledger, _ = self._run(rounds=rounds, n=n)
        per_vertex = ledger.bits_by_vertex()
        # ConstantAlgorithm sends 1 bit per round; the crashed vertex
        # pays only for the rounds before its crash fired.
        assert per_vertex[self.CRASH_VERTEX] == self.CRASH_ROUND - 1
        survivors = [v for v in range(n) if v != self.CRASH_VERTEX]
        assert all(per_vertex[v] == rounds for v in survivors)
        expected_total = (n - 1) * rounds + (self.CRASH_ROUND - 1)
        assert ledger.total_bits() == expected_total
        assert result.cost_summary["total_bits"] == expected_total

    def test_crashed_rounds_count_as_silence(self):
        rounds = 4
        _, ledger, _ = self._run(rounds=rounds)
        silent = ledger.silence_by_vertex()
        assert silent.get(self.CRASH_VERTEX) == rounds - (self.CRASH_ROUND - 1)

    def test_transcript_bottom_glyph_costs_zero(self):
        # Transcripts normalised to the ⊥ glyph (e.g. rebuilt from a
        # printed table) must agree with raw empty-string transcripts.
        raw, glyph = Transcript(), Transcript()
        raw.append(RoundRecord(sent="01", received={}))
        raw.append(RoundRecord(sent=SILENT, received={}))
        glyph.append(RoundRecord(sent="01", received={}))
        glyph.append(RoundRecord(sent=SILENT_CHAR, received={}))
        assert raw.bits_sent() == glyph.bits_sent() == 2
        assert raw.silence_count() == glyph.silence_count() == 1


class TestRunCostSummary:
    def test_duck_typed_over_transcripts(self):
        first, second = Transcript(), Transcript()
        first.append(RoundRecord(sent="01", received={}))
        first.append(RoundRecord(sent=SILENT, received={}))
        second.append(RoundRecord(sent="1", received={}))
        second.append(RoundRecord(sent="0", received={}))
        summary = run_cost_summary([first, second], rounds_executed=2)
        assert summary["total_bits"] == 4
        assert summary["rounds"] == 2
        assert summary["per_vertex"] == [
            {"vertex": "0", "bits": 2, "silent_rounds": 1},
            {"vertex": "1", "bits": 2, "silent_rounds": 0},
        ]
