#!/usr/bin/env python3
"""Test-point insertion study: fault-simulation-guided vs observability-guided.

The paper's first claim is that choosing observation points from *fault
simulation results* beats the classical observability-calculation heuristics
because it targets exactly the faults the random patterns are missing.  This
example quantifies that on a random-pattern-resistant core:

* no test points,
* N points chosen by SCOAP observability (the baseline),
* N points chosen from the fault-effect profile of the undetected faults
  (the paper's method),

all evaluated with the same PRPG pattern budget and no top-up ATPG, so the
difference is attributable to the insertion policy alone.

Run with::

    python examples/tpi_comparison.py [--budget 4] [--patterns 256]
"""

import argparse

from repro.bist import StumpsArchitecture
from repro.cores import comparator_core
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks
from repro.tpi import FaultSimGuidedObservationTpi, ObservabilityGuidedTpi


def coverage_with_points(circuit, patterns, nets):
    """Random-pattern coverage when ``nets`` are observed as test points."""
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    simulator = FaultSimulator(circuit)
    for net in nets:
        simulator.add_observation_net(net)
    simulator.simulate(fault_list, patterns)
    return fault_list.coverage()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=4)
    parser.add_argument("--patterns", type=int, default=256)
    args = parser.parse_args()

    circuit = comparator_core(width=12, easy_outputs=4)
    architecture = build_scan_chains(circuit, total_chains=2)
    stumps = StumpsArchitecture(architecture, seed=7)
    # The PRPG drives the scan cells; in the full flow the primary inputs are
    # wrapped by scan cells too, so model that here by giving the PI pads
    # random values from a separate seeded source.
    import random

    rng = random.Random(7)
    patterns = [
        {**pattern, **{pi: rng.randint(0, 1) for pi in circuit.primary_inputs}}
        for pattern in stumps.generate_patterns(args.patterns)
    ]

    # Baseline random coverage and the resistant-fault population.
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    FaultSimulator(circuit).simulate(fault_list, patterns)
    no_tp = fault_list.coverage()
    print(f"Core: {circuit.gate_count()} gates, {circuit.flop_count()} flops, "
          f"{len(fault_list)} collapsed faults")
    print(f"Random patterns: {args.patterns}, observation-point budget: {args.budget}")
    print()
    print(f"Coverage without test points:            {no_tp * 100:6.2f}%  "
          f"({len(fault_list.undetected())} faults undetected)")

    observability_plan = ObservabilityGuidedTpi(circuit, budget=args.budget).select()
    cov_observability = coverage_with_points(circuit, patterns, observability_plan.nets)
    print(f"Coverage with SCOAP-observability points: {cov_observability * 100:6.2f}%  "
          f"at {observability_plan.nets}")

    guided = FaultSimGuidedObservationTpi(circuit, budget=args.budget, profile_patterns=128)
    guided_plan = guided.select(
        fault_list, iter_blocks(patterns, nets=circuit.stimulus_nets())
    )
    cov_guided = coverage_with_points(circuit, patterns, guided_plan.nets)
    print(f"Coverage with fault-sim-guided points:    {cov_guided * 100:6.2f}%  "
          f"at {guided_plan.nets}")
    print()
    print(f"Fault-sim-guided points directly expose {guided_plan.total_covered} of the "
          f"{guided_plan.resistant_fault_count} random-resistant faults.")
    print("(The paper inserts observation points only -- no control points -- so none of "
          "these variants adds delay to a functional path.)")


if __name__ == "__main__":
    main()
