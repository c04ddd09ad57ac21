"""Cross-module integration tests.

These exercise the same paths the examples and benchmarks use, on circuits
small enough for the CI-style test run: the full LBIST flow against both TPI
methods, the BIST data-path consistency (PRPG -> scan load -> capture -> MISR
signature repeatability and fault sensitivity), and the at-speed machinery
(double-capture schedule feeding the transition-fault simulator).
"""

import pytest

from repro.bist import StumpsArchitecture
from repro.core import LogicBistConfig, LogicBistFlow, prepare_scan_core
from repro.cores import comparator_core, s27_like
from repro.faults import (
    FaultList,
    FaultSimulator,
    TransitionFaultSimulator,
    collapse_stuck_at,
)
from repro.oracle import (
    compact_response,
    generate_pattern,
    generate_patterns,
    simulate_patterns,
)
from repro.scan import build_scan_chains
from repro.oracle import (
    SequentialSimulator,
    derive_capture_patterns,
    simulate_with_derived_capture,
)
from repro.timing import CaptureWindowScheduler, make_clock_tree
from repro.tpi import FaultSimGuidedObservationTpi, ObservabilityGuidedTpi


class TestTpiComparisonIntegration:
    """The A1 ablation in miniature: fault-sim-guided TPI beats the static baseline."""

    def test_fault_sim_guided_tpi_covers_at_least_as_much(self):
        circuit = comparator_core(width=10, easy_outputs=3)
        collapsed = collapse_stuck_at(circuit)
        base_config = dict(
            total_scan_chains=2,
            observation_point_budget=2,
            tpi_profile_patterns=64,
            random_patterns=160,
            signature_patterns=0,
            clock_frequencies_mhz={"clkA": 200.0, "clkB": 125.0},
            topup_max_faults=0,  # isolate the random phase: no top-up help
        )
        guided = LogicBistFlow(LogicBistConfig(**base_config, tpi_method="fault_sim")).run(circuit)
        baseline = LogicBistFlow(
            LogicBistConfig(**base_config, tpi_method="observability")
        ).run(circuit)
        assert guided.coverage_random >= baseline.coverage_random
        assert guided.bist_ready.test_point_count <= 2
        assert baseline.bist_ready.test_point_count <= 2


class TestBistDataPathIntegration:
    """PRPG -> chains -> capture -> MISR, end to end on a sequential benchmark."""

    def _run_session(self, circuit, chains, stumps, patterns, flip_cell=None):
        stumps.reset()
        sim = SequentialSimulator(circuit)
        for index in range(patterns):
            load = generate_pattern(stumps)
            sim.load_state(load)
            sim.step({net: 0 for net in circuit.primary_inputs})
            captured = dict(sim.state)
            if flip_cell is not None and index == 0:
                # A single-bit response error anywhere in the stream can never
                # alias in an LFSR-based MISR, so one flip is enough.
                captured[flip_cell] ^= 1
            compact_response(stumps, captured)
        return dict(stumps.signatures())

    def test_signature_repeatability_and_fault_sensitivity(self):
        circuit = s27_like()
        architecture = build_scan_chains(circuit, total_chains=1)
        stumps = StumpsArchitecture(architecture, seed=11)
        chains = architecture.as_mapping()
        golden_a = self._run_session(circuit, chains, stumps, patterns=12)
        golden_b = self._run_session(circuit, chains, stumps, patterns=12)
        assert golden_a == golden_b
        corrupted = self._run_session(circuit, chains, stumps, patterns=12, flip_cell="G11")
        assert corrupted != golden_a

    def test_fault_detection_consistency_between_engines(self):
        """A fault the PPSFP engine calls detected must change the BIST signature.

        Uses the scan view: the same PRPG-generated scan loads drive both the
        packed fault simulator and the signature emulation with the fault's
        effect injected at capture.
        """
        circuit = s27_like()
        architecture = build_scan_chains(circuit, total_chains=1)
        stumps = StumpsArchitecture(architecture, seed=3)
        patterns = generate_patterns(stumps, 16)
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        simulator = FaultSimulator(circuit)
        result = simulate_patterns(simulator, fault_list, patterns)
        assert result.coverage > 0.5


class TestAtSpeedIntegration:
    def test_double_capture_schedule_drives_transition_simulation(self):
        circuit = comparator_core(width=8, easy_outputs=3)
        tree = make_clock_tree({"clkA": 200.0, "clkB": 125.0})
        schedule = CaptureWindowScheduler(tree).schedule()
        assert schedule.validate() == []

        architecture = build_scan_chains(circuit, total_chains=2)
        stumps = StumpsArchitecture(architecture, seed=5)
        launch_patterns = generate_patterns(stumps, 64)
        fault_list = FaultList.transition(circuit)
        simulator = TransitionFaultSimulator(circuit)
        result = simulate_with_derived_capture(
            simulator, fault_list, launch_patterns, pulse_order=schedule.pulse_order
        )
        assert 0.0 < result.coverage <= 1.0

    def test_staggered_capture_order_changes_cross_domain_results(self):
        """Capturing clkB before clkA must be distinguishable from the reverse
        order on a core with cross-domain logic (the reason d3 exists)."""
        circuit = comparator_core(width=6, easy_outputs=2)
        architecture = build_scan_chains(circuit, total_chains=2)
        stumps = StumpsArchitecture(architecture, seed=9)
        patterns = generate_patterns(stumps, 32)
        a_first = derive_capture_patterns(circuit, patterns, [["clkA"], ["clkB"]])
        b_first = derive_capture_patterns(circuit, patterns, [["clkB"], ["clkA"]])
        assert a_first != b_first


class TestScanPlusFlowConsistency:
    def test_flow_chain_architecture_matches_prepared_core(self):
        circuit = comparator_core(width=8, easy_outputs=2)
        config = LogicBistConfig(
            total_scan_chains=3,
            observation_point_budget=0,
            tpi_method="none",
            random_patterns=64,
            signature_patterns=0,
            clock_frequencies_mhz={"clkA": 200.0, "clkB": 125.0},
        )
        prepared = prepare_scan_core(circuit, config)
        result = LogicBistFlow(config).run(circuit)
        assert result.bist_ready.architecture.chain_count == prepared.architecture.chain_count
        assert result.bist_ready.circuit.flop_count() == prepared.circuit.flop_count()
