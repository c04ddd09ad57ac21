#!/usr/bin/env python3
"""A mixed TPI/no-TPI multi-core campaign through the stage-graph pipeline.

A real SoC test-prep run mixes cores that need test-point insertion (random-
resistant logic, profiled by a full preliminary fault simulation under
``tpi_method="fault_sim"``) with cores that don't.  Before the stage-graph
pipeline that mix was the worst case: every scenario's preparation ran
serially in the campaign parent, so one TPI-heavy core stalled the whole
pool (the Amdahl cap ``benchmarks/bench_pipeline.py`` quantifies).

Now each scenario is a subgraph of typed stages -- scan prep -> TPI ->
STUMPS/session -> fault-sim shard fan-out -> per-domain MISR signatures ->
report -- and *one* scheduler drains the whole multi-scenario DAG: core Y's
TPI profiling runs while core X's fault-sim shards are still in flight.
This walkthrough builds such a mixed campaign:

* **Core X** (Table 1) without test points,
* **Core Y** (Table 1) with fault-sim-guided observation points,
* a small synthetic core with observability-guided test points,

runs it pipelined, prints the per-stage trace grouped by category, and
verifies the canonical report bytes are identical to the serial stage walk
(the bit-exactness oracle).

Run with::

    python examples/campaign_pipeline.py [--workers 2] [--shards 4] [--patterns 256]
"""

import argparse
import time

from repro.campaign import CampaignRunner, CampaignScenario
from repro.core import LogicBistConfig
from repro.cores import core_x_recipe, core_y_recipe
from repro.cores.generator import SyntheticCoreConfig, generate_synthetic_core


def table1_scenario(recipe, patterns: int, tpi_method: str, budget: int):
    """One campaign scenario per Table 1 core, TPI per the caller's mix."""
    core = recipe.build()
    config = LogicBistConfig(
        total_scan_chains=recipe.total_scan_chains,
        tpi_method=tpi_method,
        observation_point_budget=budget,
        tpi_profile_patterns=min(128, patterns),
        prpg_length=recipe.prpg_length,
        random_patterns=patterns,
        signature_patterns=min(32, patterns),
        clock_frequencies_mhz=recipe.clock_frequencies_mhz,
    )
    return CampaignScenario(recipe.name, core.circuit, config)


def synthetic_scenario(patterns: int):
    """A small generated core using the observability-guided TPI baseline."""
    core_config = SyntheticCoreConfig(
        name="synthetic_obs",
        clock_domains=("clk1", "clk2"),
        num_inputs=8,
        num_outputs=5,
        register_width=6,
        pipeline_stages=1,
        adder_slices=1,
        adder_width=4,
        comparator_widths=(6,),
        decode_cone_width=5,
        cross_domain_links=1,
        seed=77,
    )
    circuit = generate_synthetic_core(core_config).circuit
    config = LogicBistConfig(
        total_scan_chains=4,
        tpi_method="observability",
        observation_point_budget=4,
        random_patterns=patterns,
        signature_patterns=min(16, patterns),
    )
    return CampaignScenario("synthetic-obs", circuit, config)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--patterns", type=int, default=256)
    args = parser.parse_args()

    scenarios = [
        table1_scenario(core_x_recipe(), args.patterns, "none", 0),
        table1_scenario(core_y_recipe(), args.patterns, "fault_sim", 8),
        synthetic_scenario(args.patterns),
    ]
    for scenario in scenarios:
        print(
            f"{scenario.name}: {scenario.circuit.gate_count()} gates, "
            f"tpi={scenario.config.tpi_method!r} "
            f"(budget {scenario.config.observation_point_budget})"
        )

    print(
        f"\nPipelined campaign: {len(scenarios)} scenarios through one "
        f"{args.workers}-worker stage DAG, {args.shards} fault shards each"
    )
    start = time.perf_counter()
    runner = CampaignRunner(num_workers=args.workers, fault_shards=args.shards)
    pipelined = runner.run(scenarios)
    pipelined_seconds = time.perf_counter() - start

    for name, result in pipelined.scenarios.items():
        print(f"\n{name}")
        print(f"  collapsed faults   : {result.total_faults}")
        print(f"  fault coverage     : {result.coverage:.4f}")
        for domain, signature in result.signatures.items():
            print(f"  MISR signature {domain:5s}: 0x{signature:x}")

    categories = runner.last_run.seconds_by_category()
    total = sum(categories.values()) or 1.0
    print(f"\nStage compute by category ({pipelined_seconds:.2f} s wall):")
    for category in ("prep", "sim", "control"):
        seconds = categories.get(category, 0.0)
        print(f"  {category:8s}: {seconds:7.3f} s  ({seconds / total:.1%})")
    print(
        "  (prep = pooled preparation stages; control = the only work still "
        "serial in the parent)"
    )

    print("\nRe-running on the serial scheduler to verify bit-identity...")
    serial = CampaignRunner(num_workers=1, fault_shards=args.shards).run(scenarios)
    identical = serial.report_bytes() == pipelined.report_bytes()
    print(f"Canonical reports {'IDENTICAL' if identical else 'DIVERGED (bug!)'}")
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
