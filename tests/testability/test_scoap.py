"""Tests for SCOAP testability analysis."""

from repro.netlist import CircuitBuilder, GateType, parse_bench_text
from repro.testability import INFINITE, compute_scoap, hardest_to_observe

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


class TestScoap:
    def test_primary_inputs_have_unit_controllability(self):
        circuit = parse_bench_text(C17_TEXT)
        measures = compute_scoap(circuit)
        for pi in circuit.primary_inputs:
            assert measures[pi].cc0 == 1
            assert measures[pi].cc1 == 1

    def test_outputs_have_zero_observability(self):
        circuit = parse_bench_text(C17_TEXT)
        measures = compute_scoap(circuit)
        assert measures["G22"].co == 0
        assert measures["G23"].co == 0

    def test_controllability_grows_with_depth(self):
        builder = CircuitBuilder(name="deep_and")
        nets = builder.inputs(8, prefix="i")
        out = builder.tree(GateType.AND, nets)
        builder.output(out)
        circuit = builder.build()
        measures = compute_scoap(circuit)
        # Setting an 8-input AND tree output to 1 requires all inputs at 1.
        assert measures[out].cc1 > measures[out].cc0
        assert measures[out].cc1 >= 8

    def test_constants_have_infinite_opposite_controllability(self):
        builder = CircuitBuilder(name="const")
        a = builder.input("a")
        one = builder.const(1, name="one")
        builder.output(builder.and_(a, one, name="y"))
        measures = compute_scoap(builder.build())
        assert measures["one"].cc0 >= INFINITE
        assert measures["one"].cc1 == 1

    def test_observability_increases_away_from_outputs(self):
        builder = CircuitBuilder(name="chain")
        net = builder.input("a")
        names = []
        for i in range(4):
            net = builder.buf(net, name=f"b{i}")
            names.append(net)
        builder.output(net)
        measures = compute_scoap(builder.build())
        cos = [measures[name].co for name in names]
        assert cos == sorted(cos, reverse=True)

    def test_flop_boundaries(self):
        builder = CircuitBuilder(name="seq")
        d = builder.input("d")
        ff = builder.flop(d, name="ff")
        y = builder.and_(ff, d, name="y")
        builder.output(y)
        measures = compute_scoap(builder.build())
        # Flop output acts as a controllable pseudo-PI.
        assert measures["ff"].cc0 == 1
        # Flop data input (d feeds the flop) is observable as a pseudo-PO.
        assert measures["d"].co == 0

    def test_hardest_to_observe_ranking(self):
        builder = CircuitBuilder(name="buried")
        a = builder.input("a")
        b = builder.input("b")
        buried = builder.xor(a, b, name="buried")
        chain = buried
        for i in range(5):
            chain = builder.and_(chain, a, name=f"deep{i}")
        builder.output(chain)
        circuit = builder.build()
        worst = hardest_to_observe(circuit, 2)
        assert "buried" in worst
        assert len(hardest_to_observe(circuit, 100)) == circuit.gate_count()
