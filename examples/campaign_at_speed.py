#!/usr/bin/env python3
"""An at-speed campaign: stuck-at, transition and skew-sweep per scenario.

The paper's headline claim is *at-speed* BIST for multi-clock IP cores: the
double-capture scheme (Fig. 2) tests transition faults at each domain's
functional frequency, and the shift-path clocking analysis (Fig. 3) shows the
remaining skew-induced violations have cheap structural fixes.  With PR 6 the
campaign subsystem measures all of that per scenario: a config that sets
``measure_transition_coverage`` grows the launch-on-capture transition
fan-out, ``skew_trials > 0`` adds a Monte-Carlo sweep of the shift-path
skew (one pooled stage), and the canonical report gains ``transition`` and ``skew``
sections next to the stuck-at figures.

This walkthrough runs three multi-clock cores -- different domain counts and
frequency mixes -- through one pooled campaign and prints, per core:

* stuck-at coverage and per-domain MISR signatures (the classic report),
* transition coverage at the functional clock rates (detected/total,
  pattern budget),
* the capture-window schedule facts (d3 vs worst-case inter-domain skew)
  and the Monte-Carlo skew counters of the Fig. 3 sweep (run with the
  re-timing-flop fix applied, so PRPG-side hold never fires), broken down
  by interface and violation kind.

The pooled report is then re-verified byte-identical to the serial stage
walk -- shard geometry and pool width never leak into at-speed results.

Run with::

    python examples/campaign_at_speed.py [--workers 2] [--shards 4]
"""

import argparse
import time

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core


def at_speed_scenario(name, domains, frequencies_mhz, seed, skew_range_ns):
    """One multi-clock core with full at-speed measurement enabled."""
    core_config = SyntheticCoreConfig(
        name=name,
        clock_domains=tuple(frequencies_mhz),
        num_inputs=10,
        num_outputs=6,
        register_width=7,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(7,),
        decode_cone_width=5,
        cross_domain_links=2,
        seed=seed,
    )
    circuit = generate_synthetic_core(core_config).circuit
    config = LogicBistConfig(
        total_scan_chains=6,
        observation_point_budget=3,
        tpi_profile_patterns=48,
        random_patterns=128,
        signature_patterns=16,
        measure_transition_coverage=True,
        transition_patterns=96,
        skew_trials=400,
        skew_range_ns=skew_range_ns,
        clock_frequencies_mhz=frequencies_mhz,
    )
    return CampaignScenario(name, circuit, config)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args()

    scenarios = [
        at_speed_scenario(
            "soc-cpu",
            2,
            {"cpu": 330.0, "bus": 200.0},
            seed=91,
            skew_range_ns=2.0,
        ),
        at_speed_scenario(
            "soc-ddr",
            3,
            {"ddr": 266.0, "phy": 133.0, "cfg": 66.0},
            seed=92,
            skew_range_ns=4.0,
        ),
        at_speed_scenario(
            "soc-io",
            3,
            {"ioA": 250.0, "ioB": 125.0, "mgmt": 50.0},
            seed=96,
            skew_range_ns=8.0,
        ),
    ]
    for scenario in scenarios:
        freqs = ", ".join(
            f"{domain} @ {mhz:g} MHz"
            for domain, mhz in scenario.config.clock_frequencies_mhz.items()
        )
        print(f"{scenario.name}: {scenario.circuit.gate_count()} gates ({freqs})")

    print(
        f"\nAt-speed campaign: {len(scenarios)} scenarios through one "
        f"{args.workers}-worker pool, {args.shards} fault shards each "
        "(transition fan-out + one skew-sweep stage per scenario)"
    )
    start = time.perf_counter()
    runner = CampaignRunner(num_workers=args.workers, fault_shards=args.shards)
    campaign = runner.run(scenarios)
    wall = time.perf_counter() - start

    for name, result in campaign.scenarios.items():
        print(f"\n{name}")
        print(f"  stuck-at coverage    : {result.coverage:.4f} "
              f"({result.patterns_simulated} patterns)")
        for domain, signature in result.signatures.items():
            print(f"  MISR signature {domain:5s}: 0x{signature:x}")
        print(f"  transition coverage  : {result.transition_coverage:.4f} "
              f"({result.transition_detected}/{result.transition_total_faults} "
              f"faults, {result.transition_patterns} at-speed patterns)")
        skew = result.skew
        print(f"  capture schedule     : d3 = {skew['d3_ns']:.2f} ns > "
              f"max inter-domain skew {skew['max_skew_ns']:.2f} ns "
              f"(valid: {skew['schedule_valid']})")
        counters = skew["monte_carlo"]
        violating = counters["trials"] - counters["clean"]
        print(f"  skew sweep ({counters['trials']} trials over "
              f"{skew['skew_range_ns']:g} ns): {counters['clean']} clean, "
              f"{violating} violating "
              f"(PRPG-side setup/hold {counters['prpg_to_chain_setup']}"
              f"/{counters['prpg_to_chain_hold']}, MISR-side "
              f"{counters['chain_to_misr_setup']}/{counters['chain_to_misr_hold']}; "
              f"{counters['unfixable']} beyond the cheap fixes)")

    print(f"\n({wall:.2f} s wall; re-running serially to verify bit-identity...)")
    serial = CampaignRunner(num_workers=1, fault_shards=args.shards).run(scenarios)
    identical = serial.report_bytes() == campaign.report_bytes()
    print(f"Canonical at-speed reports {'IDENTICAL' if identical else 'DIVERGED (bug!)'}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
