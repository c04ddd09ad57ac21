"""Tests for launch-on-capture transition fault simulation."""

import random

import pytest

from repro.faults import (
    FaultList,
    TransitionFault,
    TransitionFaultSimulator,
)
from repro.netlist import CircuitBuilder
from repro.oracle import (
    SequentialSimulator,
    check_strict_patterns,
    derive_capture_patterns,
    simulate_with_derived_capture,
)
from repro.simulation import StrictStimulusError


def shift_register_circuit():
    """pi -> comb (xor with feedback) -> ff0 -> ff1 -> po, single domain."""
    builder = CircuitBuilder(name="sr")
    d = builder.input("d")
    ff1 = builder.flop("n0", name="ff0", clock_domain="clk1")
    ff2 = builder.flop(ff1, name="ff1", clock_domain="clk1")
    builder.circuit.add_gate(
        "n0", __import__("repro.netlist", fromlist=["GateType"]).GateType.XOR, [d, ff2]
    )
    builder.output(ff1)
    return builder.build()


def two_domain_circuit():
    """Domain A feeds domain B through an inverter (cross-domain path)."""
    builder = CircuitBuilder(name="xdomain")
    d = builder.input("d")
    ffa = builder.flop(d, name="ffa", clock_domain="clkA")
    inv = builder.not_(ffa, name="inv")
    ffb = builder.flop(inv, name="ffb", clock_domain="clkB")
    builder.output(ffb)
    return builder.build()


class TestDeriveCapturePatterns:
    def test_single_domain_matches_sequential_simulator(self):
        circuit = shift_register_circuit()
        launch = [{"d": 1, "ff0": 0, "ff1": 1}, {"d": 0, "ff0": 1, "ff1": 0}]
        derived = derive_capture_patterns(circuit, launch)
        for launch_pattern, capture_pattern in zip(launch, derived):
            seq = SequentialSimulator(circuit)
            seq.load_state({"ff0": launch_pattern["ff0"], "ff1": launch_pattern["ff1"]})
            seq.step({"d": launch_pattern["d"]})
            assert capture_pattern["ff0"] == seq.state["ff0"]
            assert capture_pattern["ff1"] == seq.state["ff1"]
            assert capture_pattern["d"] == launch_pattern["d"]

    def test_staggered_order_sees_updated_upstream_domain(self):
        circuit = two_domain_circuit()
        launch = [{"d": 1, "ffa": 0, "ffb": 0}]
        # Simultaneous capture: ffb samples the *old* ffa (0) inverted -> 1.
        simultaneous = derive_capture_patterns(circuit, launch, [["clkA", "clkB"]])
        assert simultaneous[0]["ffa"] == 1
        assert simultaneous[0]["ffb"] == 1
        # Staggered A then B: ffb samples the *new* ffa (1) inverted -> 0.
        staggered = derive_capture_patterns(circuit, launch, [["clkA"], ["clkB"]])
        assert staggered[0]["ffa"] == 1
        assert staggered[0]["ffb"] == 0

    def test_default_pulse_order_is_all_domains(self):
        circuit = two_domain_circuit()
        launch = [{"d": 1, "ffa": 0, "ffb": 0}]
        assert derive_capture_patterns(circuit, launch) == derive_capture_patterns(
            circuit, launch, [circuit.clock_domains()]
        )


class TestTransitionDetection:
    def test_transition_detected_when_site_toggles_and_observed(self):
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        fault_list = FaultList(
            [TransitionFault("ff0", -1, slow_to_rise=True),
             TransitionFault("ff0", -1, slow_to_rise=False)]
        )
        # Launch: ff0=0; capture sets ff0 <- d XOR ff1.  With d=1, ff1=0 the
        # site rises 0->1; ff0 feeds ff1's D which is observed in scan mode.
        launch = [{"d": 1, "ff0": 0, "ff1": 0}]
        capture = derive_capture_patterns(circuit, launch)
        result = sim.simulate_pairs(fault_list, launch, capture)
        assert fault_list.record(TransitionFault("ff0", -1, True)).status.name == "DETECTED"
        # The slow-to-fall fault needs a 1->0 transition, absent here.
        assert TransitionFault("ff0", -1, False) in fault_list.undetected()
        assert result.pairs_simulated == 1

    def test_no_detection_without_transition(self):
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        fault_list = FaultList([TransitionFault("ff0", -1, slow_to_rise=True)])
        # d=0, ff1=0 keeps ff0's next value 0: no rise, no detection.
        launch = [{"d": 0, "ff0": 0, "ff1": 0}]
        capture = derive_capture_patterns(circuit, launch)
        sim.simulate_pairs(fault_list, launch, capture)
        assert fault_list.detected_count() == 0

    def test_mismatched_lengths_rejected(self):
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        with pytest.raises(ValueError):
            sim.simulate_pairs(FaultList(), [{"d": 0}], [])

    def test_simulate_with_derived_capture_convenience(self):
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        fault_list = FaultList.transition(circuit)
        rng = random.Random(3)
        launch = [
            {"d": rng.randint(0, 1), "ff0": rng.randint(0, 1), "ff1": rng.randint(0, 1)}
            for _ in range(32)
        ]
        result = simulate_with_derived_capture(sim, fault_list, launch)
        assert 0.0 < result.coverage <= 1.0
        assert result.coverage_curve[-1][0] == 32

    def test_strict_rejects_misspelled_launch_net(self):
        """Regression: a misspelled launch net used to silently read as 0.

        Before the strict hook, ``ff0_typo`` was simply dropped by the
        packing step, the real ``ff0`` defaulted to 0, and the pair
        simulation 'passed' on corrupted launch state.  Strict mode must
        refuse instead.
        """
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        fault_list = FaultList.transition(circuit)
        launch = [{"d": 1, "ff0_typo": 1, "ff1": 0}]
        with pytest.raises(StrictStimulusError, match="launch pattern 0"):
            simulate_with_derived_capture(sim, fault_list, launch, strict=True)
        # Non-strict keeps the historical (silently zero-filled) behaviour.
        result = simulate_with_derived_capture(sim, fault_list, launch)
        assert result.pairs_simulated == 1

    def test_strict_rejects_missing_launch_net(self):
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        launch = [{"d": 1, "ff0": 0}]  # ff1 missing -> would read 0
        with pytest.raises(StrictStimulusError, match="missing stimulus nets"):
            simulate_with_derived_capture(sim, FaultList.transition(circuit), launch, strict=True)

    def test_strict_rejects_misspelled_capture_net(self):
        circuit = shift_register_circuit()
        launch = [{"d": 1, "ff0": 0, "ff1": 0}]
        capture = [{"d": 1, "ff0": 1, "ff1": 0, "no_such_net": 1}]
        with pytest.raises(StrictStimulusError, match="capture pattern 0"):
            for patterns, label in ((launch, "launch"), (capture, "capture")):
                check_strict_patterns(
                    circuit, patterns, require_complete=True, label=f"{label} pattern"
                )

    def test_strict_accepts_complete_derived_pairs(self):
        """Well-formed launch patterns pass strict end to end (derived capture
        patterns are complete by construction)."""
        circuit = shift_register_circuit()
        sim = TransitionFaultSimulator(circuit)
        fault_list = FaultList.transition(circuit)
        launch = [{"d": 1, "ff0": 0, "ff1": 0}, {"d": 0, "ff0": 1, "ff1": 1}]
        strict_result = simulate_with_derived_capture(
            sim, fault_list, launch, strict=True
        )
        relaxed_list = FaultList.transition(circuit)
        relaxed_result = simulate_with_derived_capture(
            TransitionFaultSimulator(circuit), relaxed_list, launch
        )
        assert strict_result.coverage == relaxed_result.coverage
        assert strict_result.coverage_curve == relaxed_result.coverage_curve

    def test_coverage_increases_with_more_pairs(self):
        circuit = two_domain_circuit()
        rng = random.Random(11)

        def run(num_pairs):
            fl = FaultList.transition(circuit)
            sim = TransitionFaultSimulator(circuit)
            launch = [
                {"d": rng.randint(0, 1), "ffa": rng.randint(0, 1), "ffb": rng.randint(0, 1)}
                for _ in range(num_pairs)
            ]
            return simulate_with_derived_capture(sim, fl, launch).coverage

        assert run(64) >= run(2)
