"""Unit tests for gate primitives and packed evaluation (a mask of 1 is one
scalar pattern)."""

import pytest
from hypothesis import given, strategies as st

from repro.netlist.gates import (
    GateEvaluationError,
    GateType,
    evaluate_packed,
    parse_gate_type,
)


class TestScalarEvaluation:
    @pytest.mark.parametrize(
        "gate_type, inputs, expected",
        [
            (GateType.AND, (0, 0), 0),
            (GateType.AND, (1, 1), 1),
            (GateType.AND, (1, 0), 0),
            (GateType.NAND, (1, 1), 0),
            (GateType.NAND, (1, 0), 1),
            (GateType.OR, (0, 0), 0),
            (GateType.OR, (0, 1), 1),
            (GateType.NOR, (0, 0), 1),
            (GateType.NOR, (1, 0), 0),
            (GateType.XOR, (1, 0), 1),
            (GateType.XOR, (1, 1), 0),
            (GateType.XNOR, (1, 1), 1),
            (GateType.XNOR, (1, 0), 0),
            (GateType.NOT, (0,), 1),
            (GateType.NOT, (1,), 0),
            (GateType.BUF, (1,), 1),
            (GateType.BUF, (0,), 0),
        ],
    )
    def test_two_input_truth_tables(self, gate_type, inputs, expected):
        assert evaluate_packed(gate_type, inputs, 1) == expected

    @pytest.mark.parametrize(
        "sel, a, b, expected", [(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 0, 0)]
    )
    def test_mux(self, sel, a, b, expected):
        assert evaluate_packed(GateType.MUX, (sel, a, b), 1) == expected

    def test_constants(self):
        assert evaluate_packed(GateType.CONST0, (), 1) == 0
        assert evaluate_packed(GateType.CONST1, (), 1) == 1

    def test_wide_and(self):
        assert evaluate_packed(GateType.AND, (1,) * 7, 1) == 1
        assert evaluate_packed(GateType.AND, (1, 1, 0, 1), 1) == 0

    def test_wide_xor_is_parity(self):
        assert evaluate_packed(GateType.XOR, (1, 1, 1), 1) == 1
        assert evaluate_packed(GateType.XOR, (1, 1, 1, 1), 1) == 0

    def test_dff_not_combinational(self):
        with pytest.raises(GateEvaluationError):
            evaluate_packed(GateType.DFF, (1,), 1)

    def test_missing_inputs_rejected(self):
        with pytest.raises(GateEvaluationError):
            evaluate_packed(GateType.AND, (), 1)
        with pytest.raises(GateEvaluationError):
            evaluate_packed(GateType.MUX, (1, 0), 1)


class TestPackedEvaluation:
    def test_packed_matches_scalar_bitwise(self):
        mask = (1 << 8) - 1
        a = 0b10110010
        b = 0b11001010
        for gate_type in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                          GateType.XOR, GateType.XNOR):
            packed = evaluate_packed(gate_type, (a, b), mask)
            for bit in range(8):
                scalar = evaluate_packed(gate_type, ((a >> bit) & 1, (b >> bit) & 1), 1)
                assert (packed >> bit) & 1 == scalar

    def test_packed_not_respects_mask(self):
        mask = 0b1111
        assert evaluate_packed(GateType.NOT, (0b0101,), mask) == 0b1010
        # Bits above the mask never leak.
        assert evaluate_packed(GateType.NOT, (0,), mask) == mask

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_mux_packed_property(self, sel, a, b):
        mask = (1 << 64) - 1
        out = evaluate_packed(GateType.MUX, (sel, a, b), mask)
        assert out == (((~sel & a) | (sel & b)) & mask)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=6))
    def test_demorgan_property(self, values):
        mask = (1 << 32) - 1
        nand = evaluate_packed(GateType.NAND, values, mask)
        or_of_nots = evaluate_packed(
            GateType.OR, [~v & mask for v in values], mask
        )
        assert nand == or_of_nots


class TestParseGateType:
    def test_aliases(self):
        assert parse_gate_type("NAND") is GateType.NAND
        assert parse_gate_type("inv") is GateType.NOT
        assert parse_gate_type("BUFF") is GateType.BUF
        assert parse_gate_type("dff") is GateType.DFF

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_type("flipflop9000")

    def test_properties(self):
        assert GateType.DFF.is_sequential
        assert not GateType.AND.is_sequential
        assert GateType.CONST0.is_source
        assert GateType.NAND.is_inverting
        assert not GateType.AND.is_inverting
