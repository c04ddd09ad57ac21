"""End-to-end coverage tests for the PODEM top-up path.

The paper's "Fault Coverage 2" claim is that deterministic top-up patterns
close the gap random BIST leaves on random-pattern-resistant logic.  These
tests drive the whole chain -- random phase, PODEM (:mod:`repro.atpg.podem`),
the top-up driver (:mod:`repro.atpg.topup`) and static compaction
(:mod:`repro.atpg.compaction`) -- on a *hard-fault* generated core (wide
equality comparators, deep decode cones) and pin the invariants the
compacted pattern set must satisfy.
"""

import random

import pytest

from repro.atpg import TopUpAtpg, merge_compatible_cubes
from repro.core import LogicBistConfig, LogicBistFlow
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core
from repro.faults import FaultSimulator, FaultStatus, collapse_stuck_at
from repro.oracle import ReferenceFaultSimulator


def hard_fault_core(seed: int = 77):
    """A generated core dominated by random-resistant structures.

    Wide comparators and a deep decode cone keep random coverage visibly
    below 100 %, so the top-up phase has real work to do.
    """
    config = SyntheticCoreConfig(
        name=f"hard_core_{seed}",
        clock_domains=("clk1",),
        num_inputs=10,
        num_outputs=5,
        register_width=5,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(9, 8),
        decode_cone_width=8,
        cross_domain_links=0,
        seed=seed,
    )
    return generate_synthetic_core(config).circuit


def run_random_phase(circuit, count=128, seed=3):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    rng = random.Random(seed)
    nets = circuit.stimulus_nets()
    patterns = [{net: rng.randint(0, 1) for net in nets} for _ in range(count)]
    FaultSimulator(circuit).simulate(fault_list, patterns)
    return fault_list


class TestTopUpLiftsCoverage:
    def test_topup_lifts_coverage_over_random_only(self):
        circuit = hard_fault_core()
        fault_list = run_random_phase(circuit)
        coverage_random = fault_list.coverage()
        assert coverage_random < 0.99  # the core really is hard for random

        topup = TopUpAtpg(circuit, backtrack_limit=200, seed=11)
        result = topup.run(fault_list)
        assert result.coverage_before == pytest.approx(coverage_random)
        assert result.coverage_after > coverage_random
        assert result.coverage_after == pytest.approx(fault_list.coverage())
        # The top-up phase must retire genuinely random-resistant faults.
        assert result.successful_faults > 0

    def test_every_topup_pattern_detects_a_targeted_fault(self):
        """Each (uncompacted) cube's random fill detects the fault PODEM aimed at."""
        circuit = hard_fault_core(78)
        fault_list = run_random_phase(circuit, count=128, seed=5)
        topup = TopUpAtpg(circuit, backtrack_limit=200, seed=13)
        result = topup.run(fault_list)
        assert result.cubes
        checker = ReferenceFaultSimulator(circuit)
        rng = random.Random(13)
        stimulus = circuit.stimulus_nets()
        for cube in result.cubes:
            pattern = cube.fill_random(rng, stimulus)
            good = checker.simulator.simulate_block(pattern, 1)
            assert checker.detection_mask(cube.fault, good, 1), str(cube.fault)

    def test_remaining_faults_all_dispositioned(self):
        """After top-up no fault is left merely 'undetected': every one is
        detected, proven untestable, or explicitly aborted."""
        circuit = hard_fault_core(79)
        fault_list = run_random_phase(circuit, count=96, seed=7)
        TopUpAtpg(circuit, backtrack_limit=200, seed=17).run(fault_list)
        assert fault_list.with_status(FaultStatus.UNDETECTED) == []


class TestCompactedPatternCountInvariants:
    def test_accounting_invariants(self):
        circuit = hard_fault_core(80)
        fault_list = run_random_phase(circuit, count=96, seed=9)
        undetected_before = len(fault_list.undetected())
        topup = TopUpAtpg(circuit, backtrack_limit=200, seed=19)
        result = topup.run(fault_list)

        # Attempts decompose exactly into the three outcomes.
        assert result.attempted_faults == (
            result.successful_faults
            + result.untestable_faults
            + result.aborted_faults
        )
        assert result.attempted_faults <= undetected_before
        # Compaction can merge but never invent patterns: the compacted
        # pattern count is bounded by the successful cube count, and every
        # cube survives into exactly one merged pattern.
        assert len(result.cubes) == result.successful_faults
        assert result.pattern_count <= result.successful_faults
        assert result.pattern_count == len(result.patterns)
        merged = merge_compatible_cubes(result.cubes)
        assert result.pattern_count == len(merged)

    def test_compaction_preserves_final_coverage(self):
        circuit = hard_fault_core(81)
        fault_list = run_random_phase(circuit, count=96, seed=21)
        topup = TopUpAtpg(circuit, backtrack_limit=200, seed=23)
        merged = topup.run(fault_list)
        coverage_merged = fault_list.coverage()
        # The uncompacted set: one random-filled pattern per cube.
        plain_list = run_random_phase(circuit, count=96, seed=21)
        rng = random.Random(23)
        stimulus = circuit.stimulus_nets()
        plain = [cube.fill_random(rng, stimulus) for cube in merged.cubes]
        FaultSimulator(circuit).simulate(plain_list, plain)
        coverage_plain = plain_list.coverage()
        assert merged.pattern_count <= len(plain)
        # Merged patterns are supersets of their cubes, so they can only
        # detect more; tiny differences come from different random fill.
        assert coverage_merged >= coverage_plain - 0.02

    def test_patterns_fully_specified_over_stimulus(self):
        circuit = hard_fault_core(82)
        fault_list = run_random_phase(circuit, count=96, seed=25)
        result = TopUpAtpg(circuit, backtrack_limit=200, seed=27).run(fault_list)
        stimulus = set(circuit.stimulus_nets())
        for pattern in result.patterns:
            assert set(pattern) == stimulus


class TestFlowTopUpIntegration:
    def test_flow_reports_consistent_topup_numbers(self):
        """The flow's Table 1 columns agree with the underlying top-up result."""
        circuit = hard_fault_core(83)
        config = LogicBistConfig(
            total_scan_chains=2,
            tpi_method="none",
            observation_point_budget=0,
            random_patterns=96,
            signature_patterns=0,
            topup_backtrack_limit=200,
        )
        result = LogicBistFlow(config).run(circuit, core_name="hard-core")
        assert result.topup is not None
        assert result.topup_pattern_count == result.topup.pattern_count
        assert result.coverage == pytest.approx(result.topup.coverage_after)
        assert result.coverage > result.coverage_random
