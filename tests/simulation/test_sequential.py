"""Tests for the cycle-accurate sequential simulator (multi-domain clocking, scan)."""

import pytest

from repro.netlist import CircuitBuilder
from repro.oracle import SequentialSimulator


def two_domain_pipeline():
    """d -> ff_a (clk1) -> inverter -> ff_b (clk2) -> out."""
    builder = CircuitBuilder(name="pipe")
    d = builder.input("d")
    ff_a = builder.flop(d, name="ff_a", clock_domain="clk1")
    inv = builder.not_(ff_a, name="inv")
    ff_b = builder.flop(inv, name="ff_b", clock_domain="clk2")
    builder.output(ff_b)
    return builder.build()


def counter_circuit():
    """1-bit toggle: ff <- NOT(ff)."""
    builder = CircuitBuilder(name="toggle")
    builder.input("unused")
    ff = builder.flop("n_inv", name="ff")
    builder.circuit.add_gate("n_inv", __import__("repro.netlist", fromlist=["GateType"]).GateType.NOT, [ff])
    builder.output(ff)
    return builder.build()


class TestStateManagement:
    def test_initial_state_zero(self):
        sim = SequentialSimulator(two_domain_pipeline())
        assert sim.state == {"ff_a": 0, "ff_b": 0}

    def test_load_state_validation(self):
        sim = SequentialSimulator(two_domain_pipeline())
        sim.load_state({"ff_a": 1})
        assert sim.state["ff_a"] == 1
        with pytest.raises(KeyError):
            sim.load_state({"nonexistent": 1})
        with pytest.raises(ValueError):
            sim.load_state({"ff_a": 2})

    def test_reset(self):
        sim = SequentialSimulator(two_domain_pipeline(), initial_state={"ff_a": 1, "ff_b": 1})
        sim.reset(0)
        assert all(v == 0 for v in sim.state.values())
        with pytest.raises(ValueError):
            sim.reset(3)


class TestClockedOperation:
    def test_step_all_domains(self):
        sim = SequentialSimulator(two_domain_pipeline())
        sim.step({"d": 1})
        assert sim.state["ff_a"] == 1
        # ff_b sampled the *old* ff_a (0) inverted = 1.
        assert sim.state["ff_b"] == 1
        sim.step({"d": 0})
        assert sim.state["ff_a"] == 0
        assert sim.state["ff_b"] == 0  # old ff_a was 1, inverted -> 0

    def test_step_single_domain_only(self):
        sim = SequentialSimulator(two_domain_pipeline())
        sim.step({"d": 1}, pulse_domains={"clk1"})
        assert sim.state["ff_a"] == 1
        assert sim.state["ff_b"] == 0  # clk2 did not pulse
        sim.step({"d": 1}, pulse_domains={"clk2"})
        assert sim.state["ff_b"] == 0  # samples NOT(ff_a)=0

    def test_capture_window_sequence(self):
        sim = SequentialSimulator(two_domain_pipeline())
        values = sim.capture_window({"d": 1}, [{"clk1"}, {"clk2"}])
        assert len(values) == 2
        assert sim.state["ff_a"] == 1
        assert sim.state["ff_b"] == 0

    def test_toggle_counter(self):
        sim = SequentialSimulator(counter_circuit())
        observed = []
        for _ in range(4):
            sim.step({})
            observed.append(sim.state["ff"])
        assert observed == [1, 0, 1, 0]

    def test_outputs_and_evaluate(self):
        sim = SequentialSimulator(two_domain_pipeline(), initial_state={"ff_b": 1})
        assert sim.outputs({"d": 0}) == {"ff_b": 1}
        values = sim.evaluate({"d": 1})
        assert values["inv"] == 1  # ff_a = 0 -> inverted


class TestScanOperations:
    def test_scan_shift_moves_data(self):
        circuit = two_domain_pipeline()
        sim = SequentialSimulator(circuit)
        chains = {"chain0": ["ff_a", "ff_b"]}
        out1 = sim.scan_shift(chains, {"chain0": 1})
        assert out1 == {"chain0": 0}
        assert sim.state == {"ff_a": 1, "ff_b": 0}
        out2 = sim.scan_shift(chains, {"chain0": 0})
        assert out2 == {"chain0": 0}
        assert sim.state == {"ff_a": 0, "ff_b": 1}
        out3 = sim.scan_shift(chains, {"chain0": 0})
        assert out3 == {"chain0": 1}

    def test_scan_load_and_unload(self):
        sim = SequentialSimulator(two_domain_pipeline())
        chains = {"chain0": ["ff_a", "ff_b"]}
        sim.scan_load(chains, {"chain0": [1, 0]})
        assert sim.state == {"ff_a": 1, "ff_b": 0}
        assert sim.scan_unload(chains) == {"chain0": [1, 0]}

    def test_scan_load_length_mismatch(self):
        sim = SequentialSimulator(two_domain_pipeline())
        with pytest.raises(ValueError):
            sim.scan_load({"chain0": ["ff_a", "ff_b"]}, {"chain0": [1]})

    def test_empty_chain_scan_out_zero(self):
        sim = SequentialSimulator(two_domain_pipeline())
        assert sim.scan_shift({"empty": []}, {}) == {"empty": 0}

    def test_scan_then_capture_round_trip(self):
        """Load a state through scan, capture once, unload: classical scan test."""
        circuit = two_domain_pipeline()
        sim = SequentialSimulator(circuit)
        chains = {"chain0": ["ff_a", "ff_b"]}
        sim.scan_load(chains, {"chain0": [1, 1]})
        sim.step({"d": 0})  # capture
        # ff_a <- d = 0; ff_b <- NOT(old ff_a=1) = 0
        assert sim.scan_unload(chains) == {"chain0": [0, 0]}
