"""Unit tests for the Circuit graph, builder and validation."""

import pytest

from repro.netlist import (
    CellLibrary,
    Circuit,
    CircuitBuilder,
    CircuitError,
    GateType,
    validate_circuit,
)


def simple_sequential_circuit() -> Circuit:
    """Two-domain toy: a small pipeline crossing two clock domains."""
    builder = CircuitBuilder(name="toy")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    g1 = builder.and_(a, b, name="g1")
    g2 = builder.xor(g1, c, name="g2")
    ff1 = builder.flop(g2, name="ff1", clock_domain="clk1")
    g3 = builder.or_(ff1, a, name="g3")
    ff2 = builder.flop(g3, name="ff2", clock_domain="clk2")
    builder.output(ff2)
    builder.output("g2")
    return builder.build()


class TestCircuitConstruction:
    def test_basic_counts(self):
        circuit = simple_sequential_circuit()
        assert len(circuit.primary_inputs) == 3
        assert len(circuit.primary_outputs) == 2
        assert circuit.flop_count() == 2
        assert circuit.gate_count() == 3

    def test_duplicate_net_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_gate("a", GateType.BUF, ["a"])

    def test_input_gate_type_rejected_in_add_gate(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.add_gate("x", GateType.INPUT)

    def test_clock_domains(self):
        circuit = simple_sequential_circuit()
        assert circuit.clock_domains() == ["clk1", "clk2"]
        assert {f.name: f.clock_domain for f in circuit.flops()} == {
            "ff1": "clk1",
            "ff2": "clk2",
        }

    def test_default_clock_domain(self):
        circuit = Circuit()
        circuit.add_input("d")
        gate = circuit.add_gate("q", GateType.DFF, ["d"])
        assert gate.clock_domain == "clk"

    def test_copy_is_independent(self):
        circuit = simple_sequential_circuit()
        clone = circuit.copy("clone")
        clone.add_input("extra")
        assert "extra" in clone
        assert "extra" not in circuit
        assert clone.gate("g1").inputs == circuit.gate("g1").inputs
        clone.gate("g1").inputs[0] = "b"
        assert circuit.gate("g1").inputs[0] == "a"

    def test_remove_gate(self):
        circuit = simple_sequential_circuit()
        circuit.remove_output("g2")
        assert "g2" in circuit
        circuit.remove_gate("g2")
        assert "g2" not in circuit

    def test_replace_input_net(self):
        circuit = simple_sequential_circuit()
        circuit.replace_input_net("g3", "a", "b")
        assert circuit.gate("g3").inputs == ["ff1", "b"]
        with pytest.raises(CircuitError):
            circuit.replace_input_net("g3", "a", "b")


class TestStructuralAnalysis:
    def test_levels(self):
        circuit = simple_sequential_circuit()
        assert circuit.level("a") == 0
        assert circuit.level("ff1") == 0  # flop outputs are pseudo-PIs
        assert circuit.level("g1") == 1
        assert circuit.level("g2") == 2
        assert circuit.level("g3") == 1
        assert circuit.max_level() == 2

    def test_topological_order_is_consistent(self):
        circuit = simple_sequential_circuit()
        order = circuit.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for gate in circuit.combinational_gates():
            for net in gate.inputs:
                assert position[net] < position[gate.name]

    def test_fanout(self):
        circuit = simple_sequential_circuit()
        assert set(circuit.fanout("a")) == {"g1", "g3"}
        assert circuit.fanout("ff2") == []

    def test_combinational_loop_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("x", GateType.AND, ["a", "y"])
        circuit.add_gate("y", GateType.OR, ["x", "a"])
        with pytest.raises(CircuitError, match="loop"):
            circuit.topological_order()

    def test_sequential_loop_is_fine(self):
        # A flop in the loop breaks the combinational cycle.
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("x", GateType.AND, ["a", "q"])
        circuit.add_gate("q", GateType.DFF, ["x"])
        circuit.add_output("x")
        assert circuit.level("x") == 1

    def test_dangling_reference_raises(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.AND, ["a", "missing"])
        with pytest.raises(CircuitError):
            circuit.fanout_map()

    def test_observation_and_stimulus_nets(self):
        circuit = simple_sequential_circuit()
        obs = circuit.observation_nets()
        assert "ff2" in obs and "g2" in obs and "g3" in obs
        stim = circuit.stimulus_nets()
        assert set(stim) == {"a", "b", "c", "ff1", "ff2"}

    def test_fanout_cone_stops_at_flops(self):
        circuit = simple_sequential_circuit()
        cone = circuit.fanout_cone("g1")
        assert "g2" in cone and "ff1" in cone
        # ff1's Q fans out to g3, but the cone must not cross the flop.
        assert "g3" not in cone

    def test_fanin_cone(self):
        circuit = simple_sequential_circuit()
        cone = circuit.fanin_cone("g2")
        assert cone == {"g2", "g1", "a", "b", "c"}

    def test_deep_chain_no_recursion_error(self):
        builder = CircuitBuilder(name="deep")
        net = builder.input("start")
        for _ in range(5000):
            net = builder.not_(net)
        builder.output(net)
        circuit = builder.build()
        assert circuit.max_level() == 5000


class TestStatisticsAndArea:
    def test_statistics(self):
        stats = simple_sequential_circuit().statistics()
        assert stats["gates"] == 3
        assert stats["flops"] == 2
        assert stats["clock_domains"] == 2
        assert stats["gate_types"]["DFF"] == 2

    def test_area_positive_and_monotone(self):
        circuit = simple_sequential_circuit()
        library = CellLibrary()
        base = circuit.area(library)
        assert base > 0
        circuit.add_gate("extra", GateType.XOR, ["a", "b"])
        assert circuit.area(library) > base

    def test_library_delay_grows_with_inputs_and_fanout(self):
        library = CellLibrary()
        assert library.delay_ns(GateType.NAND, 4) > library.delay_ns(GateType.NAND, 2)
        assert library.delay_ns(GateType.NAND, 2, fanout=8) > library.delay_ns(
            GateType.NAND, 2, fanout=1
        )
        assert library.scan_cell_area() > library.area(GateType.DFF, 1)


class TestValidation:
    def test_valid_circuit_passes(self):
        report = validate_circuit(simple_sequential_circuit())
        assert report.ok
        assert report.errors == []

    def test_dangling_net_reported(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.AND, ["a", "nope"])
        circuit.add_output("g")
        report = validate_circuit(circuit)
        assert not report.ok
        assert any(issue.code == "dangling-net" for issue in report.errors)

    def test_bad_pin_count_reported(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a", "a"])
        circuit.add_output("g")
        report = validate_circuit(circuit)
        assert any(issue.code == "bad-pin-count" for issue in report.errors)

    def test_undriven_output_reported(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_output("ghost")
        report = validate_circuit(circuit)
        assert any(issue.code == "undriven-output" for issue in report.errors)

    def test_loop_reported(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("x", GateType.AND, ["a", "y"])
        circuit.add_gate("y", GateType.OR, ["x", "a"])
        circuit.add_output("x")
        report = validate_circuit(circuit)
        assert any(issue.code == "combinational-loop" for issue in report.errors)

    def test_unused_input_is_warning(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("unused")
        circuit.add_gate("g", GateType.BUF, ["a"])
        circuit.add_output("g")
        report = validate_circuit(circuit)
        assert report.ok
        assert any(issue.code == "unused-input" for issue in report.warnings)

    def test_raise_if_errors(self):
        circuit = Circuit()
        circuit.add_output("ghost")
        report = validate_circuit(circuit)
        with pytest.raises(CircuitError):
            report.raise_if_errors()


class TestBuilderStructures:
    def test_tree_reduction_semantics(self):
        from repro.oracle import ReferencePackedSimulator

        builder = CircuitBuilder(name="trees")
        nets = builder.inputs(5, prefix="i")
        out_and = builder.tree(GateType.NAND, nets)
        out_xor = builder.parity_tree(nets)
        builder.output(out_and)
        builder.output(out_xor)
        circuit = builder.build()
        sim = ReferencePackedSimulator(circuit)
        import itertools

        patterns = [dict(zip(nets, bits)) for bits in itertools.product((0, 1), repeat=5)]
        for pattern in patterns:
            row = sim.simulate_block(pattern, 1)
            bits = [pattern[n] for n in nets]
            assert row[out_and] == (0 if all(bits) else 1)
            assert row[out_xor] == (sum(bits) % 2)

    def test_equality_comparator_and_decoder_shapes(self):
        builder = CircuitBuilder(name="cmp")
        left = builder.inputs(4, prefix="l")
        right = builder.inputs(4, prefix="r")
        eq = builder.equality_comparator(left, right)
        builder.output(eq)
        dec = builder.decoder(left[:2])
        assert len(dec) == 4
        with pytest.raises(ValueError):
            builder.equality_comparator(left, right[:3])

    def test_mux_n_requires_power_of_two(self):
        builder = CircuitBuilder(name="muxn")
        sel = builder.inputs(2, prefix="s")
        data = builder.inputs(4, prefix="d")
        out = builder.mux_n(sel, data)
        builder.output(out)
        with pytest.raises(ValueError):
            builder.mux_n(sel, data[:3])

    def test_ripple_adder_width_check(self):
        builder = CircuitBuilder(name="adder")
        a = builder.inputs(3, prefix="a")
        b = builder.inputs(3, prefix="b")
        sums, carry = builder.ripple_adder(a, b)
        assert len(sums) == 3
        assert carry in builder.circuit
        with pytest.raises(ValueError):
            builder.ripple_adder(a, b[:2])

    def test_register_bank_clock_domain(self):
        builder = CircuitBuilder(name="reg")
        data = builder.inputs(4, prefix="d")
        qs = builder.register(data, clock_domain="clkA")
        circuit = builder.build()
        assert all(circuit.gate(q).clock_domain == "clkA" for q in qs)

    def test_fresh_name_never_collides(self):
        builder = CircuitBuilder(name="fresh")
        builder.input("x_0")
        name = builder.fresh_name("x")
        assert name != "x_0"
        assert name not in builder.circuit
