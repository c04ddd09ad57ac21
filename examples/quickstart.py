#!/usr/bin/env python3
"""Quickstart: run the flexible logic BIST flow on a small two-domain core.

This is the 5-minute tour of the library:

1. build (or load) a gate-level core,
2. configure the flow -- scan chains, observation-point budget, pattern
   budgets, clock frequencies,
3. run :class:`repro.core.LogicBistFlow`,
4. print the Table-1-style report and the Fig. 2 capture-window facts.

Run with::

    python examples/quickstart.py
"""

from repro.core import LogicBistConfig, LogicBistFlow, build_table1_report
from repro.cores import comparator_core
from repro.simulation import HAVE_NUMPY


def main() -> None:
    # A small core dominated by a random-pattern-resistant comparator: the
    # classic structure that motivates observation points and top-up ATPG.
    circuit = comparator_core(width=10, easy_outputs=4)
    print(f"Core: {circuit.name} -- {circuit.gate_count()} gates, "
          f"{circuit.flop_count()} flops, domains {circuit.clock_domains()}")

    # The simulation backend is one config knob: "python" (default, pure
    # stdlib, the bit-exactness oracle) or "numpy" (vectorised bit planes;
    # several times faster fault simulation and pattern generation, results
    # bit-identical).  Pick numpy whenever the optional dependency is
    # installed -- coverage numbers, signatures and the report below do not
    # change, only the runtime does.
    sim_backend = "numpy" if HAVE_NUMPY else "python"
    print(f"Simulation backend: {sim_backend}")

    config = LogicBistConfig(
        total_scan_chains=2,
        observation_point_budget=3,
        tpi_profile_patterns=64,
        random_patterns=256,
        clock_frequencies_mhz={"clkA": 200.0, "clkB": 125.0},
        measure_transition_coverage=True,
        transition_patterns=64,
        sim_backend=sim_backend,
    )

    flow = LogicBistFlow(config)
    result = flow.run(circuit, core_name="quickstart-core")

    print()
    print(build_table1_report(result).to_text())
    print()
    print("(Note: the 'Overhead' row is dominated by the fixed-size BIST logic -- two 19-bit")
    print(" PRPGs/MISRs plus controller -- which on a toy core is larger than the core itself;")
    print(" see EXPERIMENTS.md for the scaling discussion versus the paper's 4.4 % / 3.2 %.)")
    print()
    print(f"Observation points inserted at: {result.bist_ready.observation_nets}")
    print(f"Coverage gain from top-up ATPG: {(result.coverage - result.coverage_random) * 100:.2f} pts")
    if result.transition_coverage is not None:
        print(f"At-speed (transition) fault coverage: {result.transition_coverage * 100:.2f}%")

    schedule = result.capture_schedule
    print()
    print("Double-capture window (Fig. 2):")
    for timing in schedule.domains:
        print(
            f"  {timing.domain}: launch @ {timing.launch_time_ns:.2f} ns, "
            f"capture @ {timing.capture_time_ns:.2f} ns "
            f"(= functional period {timing.period_ns:.2f} ns -> at-speed: {timing.is_at_speed})"
        )
    print(f"  inter-domain gap d3 = {schedule.d3_ns:.2f} ns "
          f"(> max skew {schedule.max_skew_ns:.2f} ns)")
    print(f"  per-domain signatures: { {d: hex(s) for d, s in result.signatures.items()} }")


if __name__ == "__main__":
    main()
