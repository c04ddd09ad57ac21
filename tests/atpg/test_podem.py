"""Tests for the D-calculus, implication engine and PODEM ATPG."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    AtpgOutcome,
    D,
    D_BAR,
    ONE,
    PodemAtpg,
    Value5,
    X,
    ZERO,
    from_symbol,
)
from repro.faults import (
    OUTPUT_PIN,
    FaultList,
    StuckAtFault,
    collapse_stuck_at,
)
from repro.netlist import CircuitBuilder, parse_bench_text
from repro.oracle import FaultedEvaluator, ReferenceFaultSimulator

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


class TestValue5:
    def test_symbols(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(X) == "X"
        assert str(D) == "D"
        assert str(D_BAR) == "D'"

    def test_discrepancy(self):
        assert D.is_discrepancy and D_BAR.is_discrepancy
        assert not ZERO.is_discrepancy and not X.is_discrepancy

    def test_from_symbol_round_trip(self):
        for value in (ZERO, ONE, X, D, D_BAR):
            assert from_symbol(str(value)) == value
        with pytest.raises(ValueError):
            from_symbol("Q")

    def test_component_validation(self):
        with pytest.raises(ValueError):
            Value5(2, 0)


class TestFaultedEvaluator:
    def test_implication_propagates_discrepancy(self):
        circuit = c17()
        fault = StuckAtFault("G10", OUTPUT_PIN, 0)
        evaluator = FaultedEvaluator(circuit, fault)
        # G1=1, G3=1 activates (good G10 = 0... wait NAND(1,1)=0); choose
        # G1=0 so good G10=1 while faulty is 0 -> D at G10.
        values = evaluator.implied_values({"G1": 0, "G3": 1})
        assert values["G10"].symbol == "D"
        assert evaluator.fault_activated(values) is True

    def test_unactivated_fault(self):
        circuit = c17()
        fault = StuckAtFault("G10", OUTPUT_PIN, 0)
        evaluator = FaultedEvaluator(circuit, fault)
        values = evaluator.implied_values({"G1": 1, "G3": 1})
        # Good NAND(1,1)=0 equals the stuck value: not activated.
        assert evaluator.fault_activated(values) is False

    def test_is_test_at_primary_output(self):
        circuit = c17()
        fault = StuckAtFault("G22", OUTPUT_PIN, 0)
        evaluator = FaultedEvaluator(circuit, fault)
        # All-zero inputs give good G22=0 -> not a test for s-a-0.
        all_zero = {net: 0 for net in circuit.primary_inputs}
        assert not evaluator.is_test(evaluator.implied_values(all_zero))
        # G1=1, G3=1 -> G10=0 -> G22=1 in the good circuit: test found.
        pattern = {"G1": 1, "G3": 1, "G2": 0, "G6": 0, "G7": 0}
        assert evaluator.is_test(evaluator.implied_values(pattern))

    def test_d_frontier_and_x_path(self):
        circuit = c17()
        fault = StuckAtFault("G11", OUTPUT_PIN, 0)
        evaluator = FaultedEvaluator(circuit, fault)
        values = evaluator.implied_values({"G3": 1, "G6": 0})
        # G11 good = 1, faulty = 0 -> D; its fanout gates form the frontier.
        assert values["G11"].symbol == "D"
        frontier = evaluator.d_frontier(values)
        assert set(frontier) & {"G16", "G19"}
        assert evaluator.x_path_exists(values, frontier)

    def test_partial_assignment_leaves_x(self):
        circuit = c17()
        evaluator = FaultedEvaluator(circuit, StuckAtFault("G22", OUTPUT_PIN, 1))
        values = evaluator.implied_values({})
        assert values["G22"].good is None


class TestPodem:
    def test_generates_valid_tests_for_all_c17_faults(self):
        circuit = c17()
        collapsed = collapse_stuck_at(circuit)
        atpg = PodemAtpg(circuit)
        checker = ReferenceFaultSimulator(circuit)
        import random

        rng = random.Random(0)
        for fault in collapsed.representatives:
            result = atpg.generate(fault)
            assert result.outcome is AtpgOutcome.SUCCESS, f"failed for {fault}"
            pattern = result.cube.fill_random(rng, circuit.stimulus_nets())
            good = checker.simulator.simulate_block(pattern, 1)
            assert checker.detection_mask(fault, good, 1), f"cube does not detect {fault}"

    def test_untestable_fault_identified(self):
        # y = OR(a, NOT(a)) is constant 1: y s-a-1 is untestable.
        builder = CircuitBuilder(name="redundant")
        a = builder.input("a")
        inv = builder.not_(a, name="inv")
        y = builder.or_(a, inv, name="y")
        builder.output(y)
        circuit = builder.build()
        atpg = PodemAtpg(circuit)
        result = atpg.generate(StuckAtFault("y", OUTPUT_PIN, 1))
        assert result.outcome is AtpgOutcome.UNTESTABLE
        # The complementary fault is easy.
        assert atpg.generate(StuckAtFault("y", OUTPUT_PIN, 0)).outcome is AtpgOutcome.SUCCESS

    def test_sequential_scan_view_assigns_flop_outputs(self):
        builder = CircuitBuilder(name="scanview")
        d = builder.input("d")
        ff = builder.flop(d, name="ff")
        y = builder.and_(ff, d, name="y")
        builder.output(y)
        circuit = builder.build()
        atpg = PodemAtpg(circuit)
        result = atpg.generate(StuckAtFault("y", OUTPUT_PIN, 0))
        assert result.outcome is AtpgOutcome.SUCCESS
        # The cube must control the flop output (pseudo primary input).
        assigned = result.cube.assignments
        assert assigned.get("ff") == 1 and assigned.get("d") == 1

    def test_backtrack_limit_reports_aborted(self):
        # A wide equality comparator with a tiny backtrack limit forces aborts
        # for the hard match fault.
        builder = CircuitBuilder(name="hard")
        left = builder.inputs(8, prefix="l")
        right = builder.inputs(8, prefix="r")
        eq = builder.equality_comparator(left, right)
        builder.output(eq)
        circuit = builder.build()
        hard_fault = StuckAtFault(eq, OUTPUT_PIN, 0)
        atpg_loose = PodemAtpg(circuit, backtrack_limit=500)
        assert atpg_loose.generate(hard_fault).outcome is AtpgOutcome.SUCCESS
        atpg_tight = PodemAtpg(circuit, backtrack_limit=0)
        result = atpg_tight.generate(hard_fault)
        assert result.outcome in (AtpgOutcome.ABORTED, AtpgOutcome.SUCCESS)

    def test_observation_point_makes_blocked_fault_testable(self):
        builder = CircuitBuilder(name="blocked")
        a = builder.input("a")
        b = builder.input("b")
        inner = builder.xor(a, b, name="inner")
        zero = builder.const(0, name="zero")
        y = builder.and_(inner, zero, name="y")
        builder.output(y)
        circuit = builder.build()
        fault = StuckAtFault("inner", OUTPUT_PIN, 0)
        assert PodemAtpg(circuit).generate(fault).outcome is AtpgOutcome.UNTESTABLE
        with_op = PodemAtpg(circuit, observe_nets=circuit.observation_nets() + ["inner"])
        assert with_op.generate(fault).outcome is AtpgOutcome.SUCCESS

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_generated_tests_verify_on_larger_circuit(self, seed):
        """Random 4-bit adder faults: every SUCCESS cube must actually detect."""
        import random

        rng = random.Random(seed)
        builder = CircuitBuilder(name="adder4")
        a = builder.inputs(4, prefix="a")
        b = builder.inputs(4, prefix="b")
        sums, carry = builder.ripple_adder(a, b)
        for net in sums:
            builder.output(net)
        builder.output(carry)
        circuit = builder.build()
        faults = collapse_stuck_at(circuit).representatives
        fault = rng.choice(faults)
        atpg = PodemAtpg(circuit, backtrack_limit=300)
        result = atpg.generate(fault)
        assert result.outcome in (AtpgOutcome.SUCCESS, AtpgOutcome.UNTESTABLE)
        if result.outcome is AtpgOutcome.SUCCESS:
            pattern = result.cube.fill_random(rng, circuit.stimulus_nets())
            checker = ReferenceFaultSimulator(circuit)
            good = checker.simulator.simulate_block(pattern, 1)
            assert checker.detection_mask(fault, good, 1)
