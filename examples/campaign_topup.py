#!/usr/bin/env python3
"""Campaign-pooled deterministic top-up: Fault Coverage 1 -> Fault Coverage 2.

The paper's Table 1 hinges on the top-up phase: after the random patterns
plateau ("Fault Coverage 1"), deterministic PODEM patterns for the
random-pattern-resistant faults lift the result to "Fault Coverage 2".
Since the compiled ATPG engine, campaigns run that phase too -- one config
knob (``LogicBistConfig.campaign_topup=True``) and every scenario's top-up
becomes pooled work:

* PODEM targets fan out across **site-local shards** (faults sharing a
  fault site stay in one worker, so each site's fanout-cone plans compile
  exactly once -- the same partitioning the fault-sim shards use),
* each worker speculatively generates its targets' cubes on the
  kernel-indexed incremental implication engine,
* a deterministic merge replays the serial skip/fill/screen walk with
  **block-batched screening** (one PPSFP scan per
  ``LogicBistConfig.block_size`` generated patterns) and compacts the
  cubes -- the flow's one top-up path, so the report is byte-identical to
  the serial walk at any worker count -- verified at the end of this
  script.

The scenario report then carries both coverage figures plus the full top-up
accounting (patterns, attempted/successful/untestable/aborted targets, and
any targets dropped by ``topup_max_faults`` -- capped runs are never
silent).

Run with::

    python examples/campaign_topup.py [--workers 2] [--max-faults 150]
"""

import argparse
import time

from repro.atpg import TOPUP_PATTERN_BASE
from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig
from repro.cores import comparator_core, core_x_recipe


def build_scenarios(max_faults):
    """Two random-resistant cores whose coverage gap top-up must close."""
    config = LogicBistConfig(
        total_scan_chains=2,
        tpi_method="none",
        observation_point_budget=0,
        random_patterns=128,
        signature_patterns=16,
        topup_backtrack_limit=150,
        topup_max_faults=max_faults,
        # The one knob this example is about: run the deterministic ATPG
        # top-up phase inside the campaign, pooled like everything else.
        campaign_topup=True,
    )
    recipe = core_x_recipe()
    table1 = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        tpi_method="none",
        observation_point_budget=0,
        prpg_length=recipe.prpg_length,
        random_patterns=128,
        signature_patterns=16,
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
        topup_backtrack_limit=100,
        topup_max_faults=max_faults,
        campaign_topup=True,
    )
    return [
        CampaignScenario("comparator", comparator_core(width=12, easy_outputs=4), config),
        CampaignScenario("core-x", recipe.build().circuit, table1),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-faults", type=int, default=150)
    args = parser.parse_args()

    start = time.perf_counter()
    pooled = CampaignRunner(num_workers=args.workers).run(
        build_scenarios(args.max_faults)
    )
    pooled_seconds = time.perf_counter() - start

    print(f"Pooled campaign ({args.workers} workers): {pooled_seconds:.2f}s")
    for name, scenario in sorted(pooled.scenarios.items()):
        topup_detections = sum(
            1
            for index in scenario.first_detections.values()
            if index >= TOPUP_PATTERN_BASE
        )
        print(f"\n  {name}: {scenario.total_faults} faults")
        print(
            f"    Fault Coverage 1 (random, {scenario.patterns_simulated} patterns): "
            f"{scenario.coverage_random * 100:.2f}%"
        )
        print(
            f"    Fault Coverage 2 (+{scenario.topup_pattern_count} top-up patterns): "
            f"{scenario.coverage * 100:.2f}%"
        )
        print(
            f"    top-up targets: {scenario.topup_attempted} attempted, "
            f"{scenario.topup_successful} successful, "
            f"{scenario.topup_untestable} untestable, "
            f"{scenario.topup_aborted} aborted, "
            f"{scenario.topup_skipped_targets} dropped by the cap"
        )
        print(f"    faults first detected by top-up patterns: {topup_detections}")

    # The pooled schedule is an optimisation, never a result change: the
    # serial walk (the bit-exactness oracle) produces the same bytes.
    serial = CampaignRunner(num_workers=1).run(build_scenarios(args.max_faults))
    identical = serial.report_bytes() == pooled.report_bytes()
    print(f"\nByte-identical to the serial walk: {identical}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
