"""Tests for the PPSFP stuck-at fault simulator."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    OUTPUT_PIN,
    FaultList,
    FaultSimulator,
    StuckAtFault,
    collapse_stuck_at,
    coverage_plateau_slope,
    patterns_to_reach,
)
from repro.faults.transition_sim import TransitionFaultSimulator
from repro.netlist import CircuitBuilder, evaluate_packed, parse_bench_text
from repro.oracle import ReferencePackedSimulator, simulate_patterns
from repro.simulation import iter_blocks
from repro.simulation.kernel import shared_kernel

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

C17_INPUTS = ["G1", "G2", "G3", "G6", "G7"]


def c17():
    return parse_bench_text(C17_TEXT, name="c17")


def exhaustive_patterns(inputs):
    return [dict(zip(inputs, bits)) for bits in itertools.product((0, 1), repeat=len(inputs))]


def detects(sim, pattern, fault):
    """True when the single ``pattern`` detects ``fault`` on ``sim``'s ID path."""
    kernel = sim.kernel
    good = kernel.make_table()
    kernel.set_stimulus(good, pattern, 1)
    kernel.evaluate(good, 1)
    return bool(sim.detection_mask_at(sim.table.id_of(fault), good, 1))


def brute_force_detects(circuit, pattern, fault):
    """Reference detection check: simulate the faulty circuit gate by gate."""
    sim = ReferencePackedSimulator(circuit)
    good = sim.simulate_block({k: v for k, v in pattern.items()}, 1)
    # Build faulty values by overriding the site and resimulating the full circuit.
    if fault.is_stem:
        override_net = fault.gate
        faulty_value = fault.value
    else:
        gate = circuit.gate(fault.gate)
        inputs = []
        for pin, net in enumerate(gate.inputs):
            inputs.append(fault.value if pin == fault.pin else good[net])
        override_net = fault.gate
        if gate.is_flop:
            override_net = gate.inputs[fault.pin]
            faulty_value = fault.value
        else:
            faulty_value = evaluate_packed(gate.gate_type, inputs, 1)
    cone = circuit.fanout_cone(override_net)
    faulty = sim.resimulate_cone(good, {override_net: faulty_value}, cone, 1)
    for net in circuit.observation_nets():
        if faulty.get(net, good[net]) != good[net]:
            return True
    return False


class TestDetectionBasics:
    def test_known_c17_detection(self):
        circuit = c17()
        sim = FaultSimulator(circuit)
        # G22 s-a-0: need G22=1 in the good circuit -> e.g. G1=0 makes G10=1... find via truth.
        pattern = {"G1": 0, "G2": 0, "G3": 0, "G6": 0, "G7": 0}
        # All-zero inputs: G10=G11=1, G16=1, G19=1, G22=0, G23=0.
        assert detects(sim, pattern, StuckAtFault("G22", OUTPUT_PIN, 1))
        assert not detects(sim, pattern, StuckAtFault("G22", OUTPUT_PIN, 0))
        # The simulator compiles through the shared kernel cache alone; no
        # good-value simulator is built alongside it.
        assert sim.kernel is shared_kernel(circuit)
        assert not hasattr(sim, "simulator")
        assert not hasattr(TransitionFaultSimulator(circuit), "simulator")

    def test_undetectable_without_activation(self):
        circuit = c17()
        sim = FaultSimulator(circuit)
        # A fault whose good value equals the stuck value in this pattern is not detected.
        pattern = {"G1": 1, "G2": 1, "G3": 1, "G6": 1, "G7": 1}
        values = ReferencePackedSimulator(circuit).simulate_block(pattern, 1)
        fault_value = values["G10"] & 1
        assert not detects(sim, pattern, StuckAtFault("G10", OUTPUT_PIN, fault_value))

    def test_branch_fault_differs_from_stem(self):
        # G16 drives G22 and G23.  The branch fault G22.in1 s-a-1 only affects
        # G22, while the stem fault G16 s-a-1 affects both.
        circuit = c17()
        sim = FaultSimulator(circuit)
        stem = StuckAtFault("G16", OUTPUT_PIN, 1)
        branch = StuckAtFault("G23", 0, 1)
        detected_stem, detected_branch = set(), set()
        for index, pattern in enumerate(exhaustive_patterns(C17_INPUTS)):
            if detects(sim, pattern, stem):
                detected_stem.add(index)
            if detects(sim, pattern, branch):
                detected_branch.add(index)
        assert detected_branch  # the branch fault is testable
        assert detected_branch != detected_stem

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=31), st.data())
    def test_matches_brute_force(self, pattern_bits, data):
        circuit = c17()
        sim = FaultSimulator(circuit)
        faults = FaultList.stuck_at(circuit).faults()
        fault = data.draw(st.sampled_from(faults))
        pattern = {net: (pattern_bits >> i) & 1 for i, net in enumerate(C17_INPUTS)}
        assert detects(sim, pattern, fault) == brute_force_detects(circuit, pattern, fault)


class TestCampaignSimulation:
    def test_exhaustive_patterns_reach_full_coverage_on_c17(self):
        circuit = c17()
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        sim = FaultSimulator(circuit)
        result = simulate_patterns(sim, fault_list, exhaustive_patterns(C17_INPUTS))
        # c17 is fully testable: every collapsed fault is detectable.
        assert result.coverage == pytest.approx(1.0)
        assert result.patterns_simulated == 32

    def test_first_detection_indices_recorded(self):
        circuit = c17()
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        sim = FaultSimulator(circuit)
        result = simulate_patterns(sim, fault_list, exhaustive_patterns(C17_INPUTS), block_size=8)
        for fault in fault_list.detected():
            record = fault_list.record(fault)
            assert record.first_detection is not None
            assert 0 <= record.first_detection < 32
        assert sum(result.detections_per_pattern) == fault_list.detected_count()

    def test_pattern_offset_shifts_indices(self):
        circuit = c17()
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        sim = FaultSimulator(circuit)
        simulate_patterns(sim, fault_list, exhaustive_patterns(C17_INPUTS), pattern_offset=100)
        detections = [fault_list.record(f).first_detection for f in fault_list.detected()]
        assert min(detections) >= 100

    def test_block_size_invariance(self):
        circuit = c17()
        patterns = exhaustive_patterns(C17_INPUTS)
        covs = []
        for block_size in (1, 7, 64):
            fl = collapse_stuck_at(circuit).to_fault_list()
            simulate_patterns(FaultSimulator(circuit), fl, patterns, block_size=block_size)
            covs.append(fl.coverage())
        assert covs[0] == covs[1] == covs[2]

    def test_no_dropping_counts_multiple_detections(self):
        circuit = c17()
        fl = collapse_stuck_at(circuit).to_fault_list()
        sim = FaultSimulator(circuit)
        simulate_patterns(
            sim, fl, exhaustive_patterns(C17_INPUTS), drop_detected=False, block_size=4
        )
        histogram = fl.n_detect_histogram(max_n=10)
        # With dropping disabled across 8 blocks, many faults must be detected
        # in more than one block.
        assert sum(count for n, count in histogram.items() if n >= 2) > 0

    def test_coverage_curve_monotone(self):
        circuit = c17()
        fl = collapse_stuck_at(circuit).to_fault_list()
        sim = FaultSimulator(circuit)
        result = simulate_patterns(sim, fl, exhaustive_patterns(C17_INPUTS), block_size=4)
        coverages = [cov for _, cov in result.coverage_curve]
        assert coverages == sorted(coverages)
        assert patterns_to_reach(result.coverage_curve, 1.0) is not None
        assert coverage_plateau_slope(result.coverage_curve) >= 0.0


class TestObservationPoints:
    def test_observation_point_enables_detection(self):
        # y = AND(a, NOT(a)) is constant 0, so faults on the internal inverter
        # output cannot be observed at y; adding an observation point on the
        # inverter output makes them detectable.
        builder = CircuitBuilder(name="redundant")
        a = builder.input("a")
        inv = builder.not_(a, name="inv")
        y = builder.and_(a, inv, name="y")
        builder.output(y)
        circuit = builder.build()
        fault = StuckAtFault("inv", OUTPUT_PIN, 0)
        patterns = [{"a": 0}, {"a": 1}]

        sim_without = FaultSimulator(circuit)
        assert not any(detects(sim_without, p, fault) for p in patterns)

        sim_with = FaultSimulator(circuit)
        sim_with.add_observation_net("inv")
        assert any(detects(sim_with, p, fault) for p in patterns)

    def test_add_observation_net_validates(self):
        circuit = c17()
        sim = FaultSimulator(circuit)
        with pytest.raises(KeyError):
            sim.add_observation_net("not_a_net")

    def test_fault_effect_profile_points_at_blocking_site(self):
        builder = CircuitBuilder(name="blocked")
        a = builder.input("a")
        b = builder.input("b")
        inner = builder.xor(a, b, name="inner")
        blocker = builder.const(0, name="zero")
        y = builder.and_(inner, blocker, name="y")
        builder.output(y)
        circuit = builder.build()
        fault = StuckAtFault("inner", OUTPUT_PIN, 0)
        sim = FaultSimulator(circuit)
        patterns = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 0, "b": 0}]
        assert not any(detects(sim, p, fault) for p in patterns)
        profile = sim.fault_effect_profile_ids(
            sim.table.ids_of([fault]), iter_blocks(patterns, nets=circuit.stimulus_nets())
        )
        # The effect reaches 'inner' itself but never 'y'.
        assert "inner" in profile
        assert 0 in profile["inner"]
        assert "y" not in profile

    def test_profile_counts_bounded_by_pattern_count(self):
        circuit = c17()
        sim = FaultSimulator(circuit)
        faults = [StuckAtFault("G11", OUTPUT_PIN, 0), StuckAtFault("G11", OUTPUT_PIN, 1)]
        patterns = exhaustive_patterns(C17_INPUTS)[:10]
        profile = sim.fault_effect_profile_ids(
            sim.table.ids_of(faults), iter_blocks(patterns, nets=circuit.stimulus_nets())
        )
        for per_fault in profile.values():
            for count in per_fault.values():
                assert 1 <= count <= len(patterns)


class TestRandomPatternBehaviour:
    def test_random_patterns_leave_resistant_faults_on_resistant_circuit(self):
        """A wide equality comparator leaves the 'match' side random-resistant."""
        rng = random.Random(7)
        builder = CircuitBuilder(name="resistant")
        left = builder.inputs(12, prefix="l")
        right = builder.inputs(12, prefix="r")
        eq = builder.equality_comparator(left, right)
        builder.output(eq)
        circuit = builder.build()
        collapsed = collapse_stuck_at(circuit)
        fault_list = collapsed.to_fault_list()
        sim = FaultSimulator(circuit)
        patterns = [
            {net: rng.randint(0, 1) for net in circuit.primary_inputs} for _ in range(96)
        ]
        result = simulate_patterns(sim, fault_list, patterns)
        # The comparator output s-a-0 needs an exact 12-bit match: probability
        # 2^-12 per random pattern, so its equivalence class should remain
        # undetected here.
        assert result.coverage < 1.0
        eq_sa0_rep = collapsed.representative_of[StuckAtFault(eq, OUTPUT_PIN, 0)]
        assert eq_sa0_rep in set(fault_list.undetected())
