#!/usr/bin/env python3
"""Reproduce the Core X column of Table 1 on the scaled synthetic Core X.

Core X in the paper is a 218 K-gate, 2-clock-domain commercial CPU core tested
at 250 MHz with 2 x 19-bit PRPGs, 2 MISRs, 1 K observation-only test points,
20 K random patterns (93.82 % coverage) and 135 top-up patterns (97.12 %).

This example runs the same flow on the scaled synthetic stand-in (see the
substitution note in ``src/repro/cores/recipes.py``) and prints the measured numbers next
to the paper's.  Use ``--scale``/``--patterns`` to trade runtime for fidelity.

Run with::

    python examples/core_x_flow.py [--scale 1.0] [--patterns 2048]
"""

import argparse

from repro.core import LogicBistConfig, LogicBistFlow, build_table1_report, coverage_shape_checks
from repro.cores import core_x_recipe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="structural scale factor of the synthetic core")
    parser.add_argument("--patterns", type=int, default=1024,
                        help="random-pattern budget (paper: 20000)")
    parser.add_argument("--test-points", type=int, default=None,
                        help="observation-point budget (default: recipe value)")
    args = parser.parse_args()

    recipe = core_x_recipe(scale=args.scale)
    core = recipe.build()
    print(f"Synthetic Core X: {core.circuit.gate_count()} gates, "
          f"{core.circuit.flop_count()} flops, "
          f"{len(core.circuit.clock_domains())} clock domains")

    config = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        observation_point_budget=(
            args.test_points if args.test_points is not None else recipe.observation_point_budget
        ),
        tpi_profile_patterns=recipe.tpi_profile_patterns,
        random_patterns=args.patterns,
        prpg_length=recipe.prpg_length,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
    )
    result = LogicBistFlow(config).run(core.circuit, core_name=recipe.name)

    print()
    print(build_table1_report(result, recipe.paper_reference).to_text())
    print()
    print("Shape agreement with the paper:")
    for check, passed in coverage_shape_checks(result, recipe.paper_reference).items():
        print(f"  [{'ok' if passed else '!!'}] {check}")
    print()
    print("Phase timings (the paper reports 25m43s of commercial-tool CPU time):")
    for timing in result.phase_timings:
        print(f"  {timing.name:<22} {timing.seconds:8.2f} s")


if __name__ == "__main__":
    main()
