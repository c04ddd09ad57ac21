"""Tests for static compaction and the top-up ATPG campaign."""

import random

import pytest

from repro.atpg import (
    TestCube,
    TopUpAtpg,
    merge_compatible_cubes,
)
from repro.faults import (
    OUTPUT_PIN,
    FaultList,
    FaultSimulator,
    StuckAtFault,
    collapse_stuck_at,
)
from repro.netlist import CircuitBuilder, parse_bench_text
from repro.oracle import simulate_patterns

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


def random_resistant_circuit(width=10):
    """Wide equality comparator plus some easy logic around it."""
    builder = CircuitBuilder(name="resistant")
    left = builder.inputs(width, prefix="l")
    right = builder.inputs(width, prefix="r")
    eq = builder.equality_comparator(left, right)
    easy = builder.xor(left[0], right[0], name="easy")
    builder.output(eq)
    builder.output(easy)
    return builder.build()


class TestCubeMerging:
    def dummy_fault(self):
        return StuckAtFault("x", OUTPUT_PIN, 0)

    def test_compatible_cubes_merge(self):
        f = self.dummy_fault()
        cubes = [
            TestCube({"a": 1, "b": 0}, f),
            TestCube({"c": 1}, f),
            TestCube({"a": 1, "c": 1}, f),
        ]
        merged = merge_compatible_cubes(cubes)
        assert len(merged) == 1
        assert merged[0].assignments == {"a": 1, "b": 0, "c": 1}

    def test_conflicting_cubes_stay_separate(self):
        f = self.dummy_fault()
        cubes = [TestCube({"a": 1}, f), TestCube({"a": 0}, f)]
        merged = merge_compatible_cubes(cubes)
        assert len(merged) == 2

    def test_merge_is_deterministic(self):
        f = self.dummy_fault()
        cubes = [
            TestCube({"a": 1}, f),
            TestCube({"b": 0, "c": 1}, f),
            TestCube({"a": 0, "b": 0}, f),
        ]
        first = merge_compatible_cubes(cubes)
        second = merge_compatible_cubes(list(reversed(cubes)))
        assert [c.assignments for c in first] == [c.assignments for c in second]

    def test_conflicts_with_and_merged_with(self):
        f = self.dummy_fault()
        a = TestCube({"x": 1, "y": 0}, f)
        b = TestCube({"y": 0, "z": 1}, f)
        c = TestCube({"y": 1}, f)
        assert not a.conflicts_with(b)
        assert a.conflicts_with(c)
        assert a.merged_with(b).assignments == {"x": 1, "y": 0, "z": 1}
        assert a.specified_bits() == 2


class TestTopUpAtpg:
    def test_topup_closes_random_coverage_gap(self):
        circuit = random_resistant_circuit()
        collapsed = collapse_stuck_at(circuit)
        fault_list = collapsed.to_fault_list()
        rng = random.Random(5)
        random_patterns = [
            {net: rng.randint(0, 1) for net in circuit.primary_inputs} for _ in range(128)
        ]
        simulator = FaultSimulator(circuit)
        simulate_patterns(simulator, fault_list, random_patterns)
        coverage_random = fault_list.coverage()
        assert coverage_random < 1.0  # the comparator resists random patterns

        topup = TopUpAtpg(circuit, backtrack_limit=500, seed=9)
        result = topup.run(fault_list)
        assert result.coverage_before == pytest.approx(coverage_random)
        assert result.coverage_after > coverage_random
        assert result.pattern_count >= 1
        # Every produced pattern is fully specified over the stimulus nets.
        for pattern in result.patterns:
            assert set(pattern) == set(circuit.stimulus_nets())

    def test_topup_with_compaction_uses_fewer_or_equal_patterns(self):
        circuit = random_resistant_circuit(width=8)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        rng = random.Random(5)
        patterns = [
            {net: rng.randint(0, 1) for net in circuit.primary_inputs} for _ in range(64)
        ]
        simulate_patterns(FaultSimulator(circuit), fault_list, patterns)
        merged = TopUpAtpg(circuit, backtrack_limit=500, seed=9).run(fault_list)
        cov_merged = fault_list.coverage()
        # The uncompacted set: one random-filled pattern per cube.
        plain_list = collapse_stuck_at(circuit).to_fault_list()
        simulate_patterns(FaultSimulator(circuit), plain_list, patterns)
        fill = random.Random(9)
        stimulus = circuit.stimulus_nets()
        plain = [cube.fill_random(fill, stimulus) for cube in merged.cubes]
        simulate_patterns(FaultSimulator(circuit), plain_list, plain)
        cov_plain = plain_list.coverage()
        # Cube merging can only reduce the pattern count relative to the
        # number of successful cubes it starts from.
        assert merged.pattern_count <= merged.successful_faults
        assert cov_merged == pytest.approx(cov_plain, abs=0.02)

    def test_untestable_faults_marked(self):
        builder = CircuitBuilder(name="redundant")
        a = builder.input("a")
        inv = builder.not_(a, name="inv")
        y = builder.or_(a, inv, name="y")
        builder.output(y)
        circuit = builder.build()
        fault_list = FaultList([StuckAtFault("y", OUTPUT_PIN, 1)])
        result = TopUpAtpg(circuit).run(fault_list)
        assert result.untestable_faults == 1
        assert fault_list.untestable_count() == 1
        assert fault_list.coverage(exclude_untestable=True) == 1.0

    def test_max_faults_limits_attempts(self):
        circuit = c17()
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        topup = TopUpAtpg(circuit, max_faults=3)
        result = topup.run(fault_list)
        assert result.attempted_faults <= 3

    def test_detected_faults_not_retargeted(self):
        circuit = c17()
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        result = TopUpAtpg(circuit, seed=1).run(fault_list)
        # One pattern typically detects several faults, so the number of ATPG
        # attempts must be well below the fault count.
        assert result.attempted_faults < len(fault_list)
        assert fault_list.coverage() == pytest.approx(1.0)
