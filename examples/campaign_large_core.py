#!/usr/bin/env python3
"""Memory-budgeted fault-sim campaign on an SoC-sized core.

The numpy backend's vectorised PPSFP scan keeps one slot row per cone net of
every live fault.  Unbounded, that slot table grows with fault count *times*
block width -- gigabytes on a large core at wide blocks -- which is exactly
what ``LogicBistConfig.sim_memory_budget_mb`` caps: the live fault set is
tiled into groups whose union-cone demand fits the budget, and one recycled
arena (sized to the largest tile) serves every tile in turn.  Results are
bit-identical at any budget; only the peak memory (and often, favorably, the
cache behavior) changes.

This walkthrough scales the Core Y stand-in up, runs the same random-pattern
fault simulation with and without a budget, and prints what the budget
bought: measured peak scan-workspace bytes, patterns/sec, and the OS-level
peak RSS.  It then re-runs the budgeted scan through the campaign
pipeline's shard stages (`shard_stage_nodes`, drained by a worker pool and
min-merged as a scenario's fault-sim fan-out is), whose shard states carry
the budget to every worker, and checks all three runs agree bit for bit.

Run with::

    PYTHONPATH=src python examples/campaign_large_core.py \
        [--scale 4.0] [--patterns 2048] [--block-size 2048] [--budget-mb 32]
"""

import argparse
import random
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None

from repro.campaign import (
    build_simulation_result,
    merge_first_detections,
    shard_stage_nodes,
)
from repro.campaign.pipeline import undetected_of_kind
from repro.campaign.scheduler import make_scheduler
from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.faults.fault_sim import FaultSimShardState
from repro.faults.models import StuckAtFault
from repro.simulation import HAVE_NUMPY, iter_blocks


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process (MB; 0 without POSIX)."""
    if resource is None:
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_engine(circuit, blocks, patterns, budget_mb):
    """One direct numpy fault-sim run; returns (fault_list, stats row)."""
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    engine = FaultSimulator(circuit, backend="numpy", memory_budget_mb=budget_mb)
    start = time.perf_counter()
    engine.simulate_blocks(fault_list, blocks)
    seconds = time.perf_counter() - start
    scan = engine._np_scan[1]
    label = "unbounded" if budget_mb is None else f"{budget_mb:g} MB budget"
    return fault_list, {
        "label": label,
        "seconds": seconds,
        "patterns_per_sec": patterns / seconds,
        "peak_workspace_mb": scan.peak_workspace_nbytes / 2**20,
        "coverage": fault_list.coverage(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=4.0,
                        help="structural scale of the Core Y recipe")
    parser.add_argument("--patterns", type=int, default=2048)
    parser.add_argument("--block-size", type=int, default=2048)
    parser.add_argument("--budget-mb", type=float, default=32.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args()

    if not HAVE_NUMPY:
        raise SystemExit("this walkthrough needs the numpy backend (repro[fast])")

    recipe = core_y_recipe(scale=args.scale)
    circuit = recipe.build().circuit
    print(
        f"{recipe.name} @ scale {args.scale:g}: {circuit.gate_count()} gates, "
        f"{circuit.flop_count()} flops, "
        f"{len(collapse_stuck_at(circuit).representatives)} collapsed faults"
    )
    rng = random.Random(2005)
    stimulus = circuit.stimulus_nets()
    pattern_list = [
        {net: rng.randint(0, 1) for net in stimulus}
        for _ in range(args.patterns)
    ]
    blocks = list(
        iter_blocks(pattern_list, block_size=args.block_size, nets=stimulus)
    )
    print(
        f"{args.patterns} random patterns in {len(blocks)} block(s) of "
        f"{args.block_size} (bit-plane width {(args.block_size + 63) // 64} words)\n"
    )

    runs = []
    fault_lists = []
    for budget_mb in (None, args.budget_mb):
        fault_list, row = run_engine(circuit, blocks, args.patterns, budget_mb)
        fault_lists.append(fault_list)
        runs.append(row)
        print(
            f"{row['label']:>16}: {row['seconds']:7.2f} s  "
            f"{row['patterns_per_sec']:8.1f} patterns/s  "
            f"peak workspace {row['peak_workspace_mb']:8.2f} MB  "
            f"coverage {row['coverage']:.4%}  (process RSS peak so far: "
            f"{peak_rss_mb():.0f} MB)"
        )

    unbounded, budgeted = runs
    print(
        f"\nbudget bought a "
        f"{unbounded['peak_workspace_mb'] / budgeted['peak_workspace_mb']:.1f}x "
        f"peak-memory cut at "
        f"{budgeted['patterns_per_sec'] / unbounded['patterns_per_sec']:.2f}x "
        f"the unbounded throughput"
    )

    print(
        f"\nSharded campaign path: {args.shards} fault shards on "
        f"{args.workers} worker(s), budget carried in the shard states..."
    )
    campaign_list = collapse_stuck_at(circuit).to_fault_list()
    start = time.perf_counter()
    positions, faults = undetected_of_kind(campaign_list, StuckAtFault)
    state = FaultSimShardState(
        circuit=circuit,
        observe_nets=tuple(circuit.observation_nets()),
        faults=faults,
        sim_backend="numpy",
        sim_memory_budget_mb=args.budget_mb,
    )
    offsets = range(0, args.patterns, args.block_size)
    nodes = shard_stage_nodes(
        "large-core", state, tuple(zip(offsets, blocks)), args.shards,
        prefix="large-core",
    )
    run = make_scheduler(args.workers).run(nodes)
    merged = merge_first_detections(run.value(node.key) for node in nodes)
    build_simulation_result(
        campaign_list,
        positions,
        merged,
        [offset + block.num_patterns for offset, block in zip(offsets, blocks)],
    )
    seconds = time.perf_counter() - start
    print(
        f"campaign: {seconds:.2f} s, coverage {campaign_list.coverage():.4%}"
    )

    reference = fault_lists[0]
    for candidate in (fault_lists[1], campaign_list):
        for fault in reference.faults():
            ref, got = reference.record(fault), candidate.record(fault)
            assert got.status is ref.status, str(fault)
            assert got.first_detection == ref.first_detection, str(fault)
    print("all three runs bit-identical (statuses and first detections)")


if __name__ == "__main__":
    main()
