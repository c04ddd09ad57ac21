"""Ablation A1: fault-simulation-guided vs observability-guided test points.

The paper's coverage claim rests on choosing observation points from fault
simulation results "instead of observability calculation commonly used in
previous logic BIST schemes".  This ablation gives both selectors the same
budget on the same random-resistant core and the same PRPG pattern budget
(no top-up ATPG), so the random-pattern coverage difference is attributable to
the selection policy alone.
"""

import random

from repro.bist import StumpsArchitecture
from repro.cores import comparator_core
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.oracle import generate_patterns, simulate_patterns
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks
from repro.tpi import FaultSimGuidedObservationTpi, ObservabilityGuidedTpi

from conftest import print_rows, scaled

BUDGET = 4
PATTERNS = scaled(384, 128)


def _patterns(circuit, stumps, count, seed=7):
    rng = random.Random(seed)
    return [
        {**pattern, **{pi: rng.randint(0, 1) for pi in circuit.primary_inputs}}
        for pattern in generate_patterns(stumps, count)
    ]


def _coverage(circuit, patterns, observe_extra=()):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    simulator = FaultSimulator(circuit)
    for net in observe_extra:
        simulator.add_observation_net(net)
    simulate_patterns(simulator, fault_list, patterns)
    return fault_list


def test_ablation_tpi_policies(benchmark):
    """Coverage after the random phase for: no TPI, SCOAP TPI, fault-sim TPI."""
    circuit = comparator_core(width=12, easy_outputs=4)
    architecture = build_scan_chains(circuit, total_chains=2)
    stumps = StumpsArchitecture(architecture, seed=7)
    patterns = _patterns(circuit, stumps, PATTERNS)

    def run_ablation():
        baseline_list = _coverage(circuit, patterns)
        observability_plan = ObservabilityGuidedTpi(circuit, budget=BUDGET).select()
        observability_list = _coverage(circuit, patterns, observability_plan.nets)
        guided_plan = FaultSimGuidedObservationTpi(
            circuit, budget=BUDGET, profile_patterns=128
        ).select(baseline_list, iter_blocks(patterns, nets=circuit.stimulus_nets()))
        guided_list = _coverage(circuit, patterns, guided_plan.nets)
        return baseline_list, observability_plan, observability_list, guided_plan, guided_list

    baseline_list, observability_plan, observability_list, guided_plan, guided_list = (
        benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    )

    rows = [
        {
            "policy": "no test points",
            "points": 0,
            "coverage": f"{baseline_list.coverage() * 100:.2f}%",
            "undetected": len(baseline_list.undetected()),
        },
        {
            "policy": "observability (SCOAP)",
            "points": len(observability_plan.nets),
            "coverage": f"{observability_list.coverage() * 100:.2f}%",
            "undetected": len(observability_list.undetected()),
        },
        {
            "policy": "fault-sim guided (paper)",
            "points": len(guided_plan.nets),
            "coverage": f"{guided_list.coverage() * 100:.2f}%",
            "undetected": len(guided_list.undetected()),
        },
    ]
    print_rows(f"Ablation A1: TPI policy ({BUDGET} observation points, {PATTERNS} patterns)", rows)

    assert observability_list.coverage() >= baseline_list.coverage() - 1e-9
    assert guided_list.coverage() >= observability_list.coverage()
    assert guided_list.coverage() > baseline_list.coverage()
    benchmark.extra_info["coverage_no_tp"] = baseline_list.coverage()
    benchmark.extra_info["coverage_scoap"] = observability_list.coverage()
    benchmark.extra_info["coverage_fault_sim"] = guided_list.coverage()
