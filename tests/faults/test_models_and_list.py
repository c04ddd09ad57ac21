"""Tests for fault models, fault enumeration and the FaultList bookkeeping."""

import pytest

from repro.faults import (
    OUTPUT_PIN,
    FaultList,
    FaultStatus,
    StuckAtFault,
    TransitionFault,
    detection_summary,
    enumerate_stuck_at_faults,
    enumerate_transition_faults,
    stuck_at_table,
)
from repro.netlist import CircuitBuilder, parse_bench_text

C17_TEXT = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17():
    return parse_bench_text(C17_TEXT, name="c17")


class TestStuckAtFault:
    def test_str_and_properties(self):
        stem = StuckAtFault("G10", OUTPUT_PIN, 0)
        branch = StuckAtFault("G16", 1, 1)
        assert stem.is_stem and not branch.is_stem
        assert "s-a-0" in str(stem)
        assert ".in1" in str(branch)

    def test_validation(self):
        with pytest.raises(ValueError):
            StuckAtFault("G1", OUTPUT_PIN, 2)
        with pytest.raises(ValueError):
            StuckAtFault("G1", -5, 0)

    def test_faulted_net(self):
        circuit = c17()
        assert StuckAtFault("G10", OUTPUT_PIN, 0).faulted_net(circuit) == "G10"
        assert StuckAtFault("G16", 1, 0).faulted_net(circuit) == "G11"

    def test_hashable_and_ordered(self):
        a = StuckAtFault("G10", OUTPUT_PIN, 0)
        b = StuckAtFault("G10", OUTPUT_PIN, 0)
        assert a == b and hash(a) == hash(b)
        assert sorted([StuckAtFault("G2", 0, 1), a]) == [a, StuckAtFault("G2", 0, 1)]


class TestTransitionFault:
    def test_launch_capture_values(self):
        """A transition fault resolves to the stuck-at row of its site stuck
        at the launch value: the row the transition scan gates."""
        table = stuck_at_table(c17())
        str_fault = TransitionFault("G10", OUTPUT_PIN, slow_to_rise=True)
        assert str_fault.initial_value == str_fault.value == 0
        assert table.id_of(str_fault) == table.id_of(StuckAtFault("G10", OUTPUT_PIN, 0))
        stf_fault = TransitionFault("G16", 1, slow_to_rise=False)
        assert stf_fault.initial_value == stf_fault.value == 1
        assert table.id_of(stf_fault) == table.id_of(StuckAtFault("G16", 1, 1))

    def test_str(self):
        assert "STR" in str(TransitionFault("G1", OUTPUT_PIN, True))
        assert "STF" in str(TransitionFault("G1", 0, False))


class TestEnumeration:
    def test_stem_faults_for_every_gate(self):
        circuit = c17()
        faults = enumerate_stuck_at_faults(circuit, include_branches=False)
        # 5 PIs + 6 gates = 11 nets, two faults each.
        assert len(faults) == 22
        assert all(f.is_stem for f in faults)

    def test_branch_faults_only_on_fanout_stems(self):
        circuit = c17()
        faults = enumerate_stuck_at_faults(circuit, include_branches=True)
        branch_faults = [f for f in faults if not f.is_stem]
        # Fanout stems in c17: G3 (feeds G10, G11), G11 (feeds G16, G19),
        # G16 (feeds G22, G23).  Each fanout branch gets 2 faults.
        assert len(branch_faults) == 2 * 2 * 3
        branch_nets = {f.faulted_net(circuit) for f in branch_faults}
        assert branch_nets == {"G3", "G11", "G16"}

    def test_constants_not_faulted(self):
        builder = CircuitBuilder(name="const")
        a = builder.input("a")
        one = builder.const(1)
        builder.output(builder.and_(a, one))
        faults = enumerate_stuck_at_faults(builder.build())
        assert not any(f.gate == one for f in faults)

    def test_transition_enumeration(self):
        circuit = c17()
        faults = enumerate_transition_faults(circuit)
        assert len(faults) == 22
        assert {f.slow_to_rise for f in faults} == {True, False}


class TestFaultList:
    def test_construction_and_membership(self):
        circuit = c17()
        fl = FaultList.stuck_at(circuit)
        assert len(fl) == len(enumerate_stuck_at_faults(circuit))
        fault = StuckAtFault("G10", OUTPUT_PIN, 0)
        assert fault in fl
        fl.add(fault)  # idempotent
        assert len(fl) == len(enumerate_stuck_at_faults(circuit))

    def test_mark_detected_tracks_first_detection(self):
        fl = FaultList([StuckAtFault("a", OUTPUT_PIN, 0)])
        fault = fl.faults()[0]
        fl.mark_detected(fault, pattern_index=7)
        fl.mark_detected(fault, pattern_index=3)
        record = fl.record(fault)
        assert record.status is FaultStatus.DETECTED
        assert record.first_detection == 3
        assert record.detection_count == 2

    def test_coverage_definitions(self):
        faults = [StuckAtFault(f"g{i}", OUTPUT_PIN, 0) for i in range(4)]
        fl = FaultList(faults)
        fl.mark_detected(faults[0])
        fl.mark_detected(faults[1])
        fl.mark_untestable(faults[2])
        assert fl.coverage() == pytest.approx(0.5)
        assert fl.coverage(exclude_untestable=True) == pytest.approx(2 / 3)
        assert fl.detected_count() == 2
        assert fl.untestable_count() == 1

    def test_aborted_does_not_override_detected(self):
        fault = StuckAtFault("a", OUTPUT_PIN, 1)
        fl = FaultList([fault])
        fl.mark_detected(fault, 0)
        fl.mark_aborted(fault)
        assert fl.record(fault).status is FaultStatus.DETECTED

    def test_undetected_includes_aborted(self):
        faults = [StuckAtFault("a", OUTPUT_PIN, 0), StuckAtFault("b", OUTPUT_PIN, 0)]
        fl = FaultList(faults)
        fl.mark_aborted(faults[0])
        assert set(fl.undetected()) == set(faults)

    def test_empty_list_coverage_is_one(self):
        assert FaultList().coverage() == 1.0

    def test_n_detect_histogram(self):
        fault = StuckAtFault("a", OUTPUT_PIN, 0)
        fl = FaultList([fault])
        for _ in range(12):
            fl.mark_detected(fault)
        histogram = fl.n_detect_histogram(max_n=10)
        assert histogram[10] == 1
        assert sum(histogram.values()) == 1

    def test_filter_and_restricted_to(self):
        faults = [StuckAtFault("a", OUTPUT_PIN, 0), StuckAtFault("b", OUTPUT_PIN, 1)]
        fl = FaultList(faults)
        fl.mark_detected(faults[0], 5)
        only_a = fl.filter(lambda f: f.gate == "a")
        assert only_a.faults() == [faults[0]]
        # filter() resets records...
        assert only_a.record(faults[0]).status is FaultStatus.UNDETECTED
        # ...restricted_to() preserves them.
        subset = fl.restricted_to([faults[0]])
        assert subset.record(faults[0]).status is FaultStatus.DETECTED
        assert subset.record(faults[0]).first_detection == 5

    def test_detection_summary(self):
        faults = [StuckAtFault("a", OUTPUT_PIN, 0), StuckAtFault("b", OUTPUT_PIN, 1)]
        fl = FaultList(faults)
        fl.mark_detected(faults[0])
        summary = detection_summary(fl)
        assert summary["total"] == 2
        assert summary["detected"] == 1
        assert summary["coverage"] == pytest.approx(0.5)
