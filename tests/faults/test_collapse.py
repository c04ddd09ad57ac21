"""Tests for structural equivalence fault collapsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import OUTPUT_PIN, StuckAtFault, collapse_stuck_at, enumerate_stuck_at_faults
from repro.netlist import CircuitBuilder, GateType, parse_bench_text

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


class TestCollapsingRules:
    def test_inverter_chain_collapses_fully(self):
        builder = CircuitBuilder(name="invchain")
        net = builder.input("a")
        for i in range(3):
            net = builder.not_(net, name=f"n{i}")
        builder.output(net)
        circuit = builder.build()
        collapsed = collapse_stuck_at(circuit)
        # A fanout-free inverter chain has exactly 2 equivalence classes
        # (every fault is equivalent to a s-a-0 or s-a-1 at the input).
        assert len(collapsed.representatives) == 2

    def test_and_gate_input_sa0_equivalent_to_output_sa0(self):
        builder = CircuitBuilder(name="and2")
        a = builder.input("a")
        b = builder.input("b")
        y = builder.and_(a, b, name="y")
        builder.output(y)
        collapsed = collapse_stuck_at(builder.build())
        rep_a0 = collapsed.representative_of[StuckAtFault("a", OUTPUT_PIN, 0)]
        rep_y0 = collapsed.representative_of[StuckAtFault("y", OUTPUT_PIN, 0)]
        rep_b0 = collapsed.representative_of[StuckAtFault("b", OUTPUT_PIN, 0)]
        assert rep_a0 == rep_y0 == rep_b0
        # s-a-1 faults stay distinct.
        rep_a1 = collapsed.representative_of[StuckAtFault("a", OUTPUT_PIN, 1)]
        rep_y1 = collapsed.representative_of[StuckAtFault("y", OUTPUT_PIN, 1)]
        assert rep_a1 != rep_y1

    def test_nand_gate_input_sa0_equivalent_to_output_sa1(self):
        builder = CircuitBuilder(name="nand2")
        a = builder.input("a")
        b = builder.input("b")
        y = builder.nand(a, b, name="y")
        builder.output(y)
        collapsed = collapse_stuck_at(builder.build())
        assert (
            collapsed.representative_of[StuckAtFault("a", OUTPUT_PIN, 0)]
            == collapsed.representative_of[StuckAtFault("y", OUTPUT_PIN, 1)]
        )

    def test_xor_gate_does_not_collapse_inputs(self):
        builder = CircuitBuilder(name="xor2")
        a = builder.input("a")
        b = builder.input("b")
        y = builder.xor(a, b, name="y")
        builder.output(y)
        collapsed = collapse_stuck_at(builder.build())
        reps = {
            collapsed.representative_of[StuckAtFault("a", OUTPUT_PIN, 0)],
            collapsed.representative_of[StuckAtFault("b", OUTPUT_PIN, 0)],
            collapsed.representative_of[StuckAtFault("y", OUTPUT_PIN, 0)],
        }
        assert len(reps) == 3

    def test_fanout_branches_not_collapsed_with_stem(self):
        circuit = parse_bench_text(C17_TEXT, name="c17")
        collapsed = collapse_stuck_at(circuit)
        # G16 fans out to G22 and G23: the branch s-a-1 faults must stay
        # separate from the stem s-a-1 fault.
        stem_rep = collapsed.representative_of[StuckAtFault("G16", OUTPUT_PIN, 1)]
        branch22 = collapsed.representative_of[StuckAtFault("G22", 1, 1)]
        branch23 = collapsed.representative_of[StuckAtFault("G23", 0, 1)]
        assert stem_rep != branch22
        assert stem_rep != branch23

    def test_c17_collapse_ratio(self):
        circuit = parse_bench_text(C17_TEXT, name="c17")
        collapsed = collapse_stuck_at(circuit)
        total = len(enumerate_stuck_at_faults(circuit))
        assert len(collapsed.representatives) < total
        assert 0.3 < collapsed.collapse_ratio < 1.0

    def test_every_fault_has_a_representative_in_the_list(self):
        circuit = parse_bench_text(C17_TEXT, name="c17")
        collapsed = collapse_stuck_at(circuit)
        rep_set = set(collapsed.representatives)
        for fault, rep in collapsed.representative_of.items():
            assert rep in rep_set
            assert collapsed.representative_of[rep] == rep
        # Classes partition the universe.
        all_members = [m for members in collapsed.classes.values() for m in members]
        assert len(all_members) == len(collapsed.representative_of)
        assert len(set(all_members)) == len(all_members)

    def test_to_fault_list(self):
        circuit = parse_bench_text(C17_TEXT, name="c17")
        collapsed = collapse_stuck_at(circuit)
        fl = collapsed.to_fault_list()
        assert len(fl) == len(collapsed.representatives)


class TestCollapsePreservesDetection:
    """Property: a pattern detects a fault iff it detects its representative."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=31))
    def test_detection_equivalence_on_c17(self, pattern_bits):
        from repro.oracle import ReferenceFaultSimulator

        circuit = parse_bench_text(C17_TEXT, name="c17")
        collapsed = collapse_stuck_at(circuit)
        reference = ReferenceFaultSimulator(circuit)
        inputs = ["G1", "G2", "G3", "G6", "G7"]
        pattern = {net: (pattern_bits >> i) & 1 for i, net in enumerate(inputs)}
        good = reference.simulator.simulate_block(pattern, 1)
        # Check a sample of equivalence classes (full check would be slow).
        for rep, members in list(collapsed.classes.items())[:12]:
            rep_detected = bool(reference.detection_mask(rep, good, 1))
            for member in members:
                assert bool(reference.detection_mask(member, good, 1)) == rep_detected
