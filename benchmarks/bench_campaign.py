"""Benchmark: sharded campaign fault-simulation throughput vs the serial kernel.

Measures PPSFP stuck-at fault simulation on the scaled Core Y stand-in three
ways:

* **serial** -- :meth:`FaultSimulator.simulate_blocks`, the oracle path,
* **sharded, sequential** -- the 4-fault-shard campaign plan's shard
  stages (:class:`~repro.campaign.pipeline.ShardScanStage`) run one at a
  time in-process, recording each shard's own compute seconds;
  ``serial / max(shard)`` is the *projected* 4-worker speedup, i.e. the
  speedup the shard plan delivers when every shard really gets its own CPU
  (it folds in the duplicated fault-free simulation and per-task overhead,
  but no multiprocessing dispatch cost),
* **sharded, 4-worker pool** -- the same shard stages drained through a
  real 4-worker pool (``make_scheduler(4)``), min-merged and materialised
  as a scenario's fault-sim fan-out does, recording the end-to-end wall
  clock.

Both numbers land in ``benchmarks/BENCH_campaign.json`` next to the host's
CPU count, because they answer different questions: the wall speedup is what
*this* machine delivers (meaningless on the single-CPU CI container, where
four workers time-share one core), while the projected speedup is the
machine-independent quality of the shard plan -- the acceptance bar is
``>= 2.5x`` at 4 workers.  Every run also re-asserts bit-identity of the
merged results against the serial engine, so the benchmark doubles as an
equivalence check at full workload scale.

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_campaign.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_campaign.py -s
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from itertools import accumulate

from repro.campaign import (
    SessionSpec,
    build_simulation_result,
    merge_first_detections,
    shard_stage_nodes,
)
from repro.campaign.scheduler import make_scheduler
from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at, stuck_at_table
from repro.faults.fault_sim import FaultSimShardState
from repro.simulation import iter_blocks
from repro.simulation.kernel import KERNEL_CACHE

from conftest import print_rows, scaled, smoke_mode, write_bench_json


@dataclass(frozen=True)
class BlockSource:
    """Pre-packed blocks standing in for a STUMPS as a
    :class:`~repro.campaign.pipeline.SessionSpec`'s pattern source: it has
    nothing to reset and never changes, so its reset copy is itself."""

    blocks: tuple

    def reset_copy(self) -> "BlockSource":
        return self

    def generate_packed_blocks(self, count, block_size):
        return iter(self.blocks)

#: Patterns per engine run (every engine simulates this same workload).
#: Large enough that each worker's fixed cost (kernel build + its share of
#: cone-plan compilation) amortizes the way it does in a real 20K-pattern
#: campaign.
PATTERNS = scaled(4096, 256)
BLOCK_SIZE = 256
WORKERS = 4
#: Acceptance bar for the projected 4-worker fault-sim speedup.
TARGET_SPEEDUP = 2.5


def _build_workload():
    recipe = core_y_recipe()
    circuit = recipe.build().circuit
    rng = random.Random(20050307)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus} for _ in range(PATTERNS)
    ]
    blocks = list(iter_blocks(patterns, block_size=BLOCK_SIZE, nets=stimulus))
    return recipe, circuit, blocks


def _fault_snapshot(fault_list):
    return {
        str(fault): (
            fault_list.record(fault).status.name,
            fault_list.record(fault).first_detection,
        )
        for fault in fault_list.faults()
    }


#: Timed sections run this many times; the minimum is recorded (the standard
#: noise-rejection practice -- scheduler interference only ever adds time).
REPEATS = scaled(2, 1)


def _run_serial(circuit, blocks):
    seconds = []
    for _ in range(REPEATS):
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        engine = FaultSimulator(circuit)
        start = time.perf_counter()
        engine.simulate_blocks(fault_list, blocks)
        seconds.append(time.perf_counter() - start)
    return min(seconds), fault_list


def _shard_nodes(circuit, fault_list, blocks, num_shards):
    """The production shard stages (site-local keyed round-robin fault
    shards, each over the whole session) over ``fault_list``'s undetected
    faults, so the benchmark measures exactly the plan the pool runs."""
    positions = fault_list.undetected_positions()
    state = FaultSimShardState(
        circuit=circuit,
        observe_nets=tuple(circuit.observation_nets()),
        rows=tuple(fault_list.table_ids(stuck_at_table(circuit), positions)),
    )
    session = SessionSpec(BlockSource(tuple(blocks)), PATTERNS, BLOCK_SIZE)
    nodes = shard_stage_nodes("bench", state, session, num_shards, prefix="bench")
    return positions, nodes


def _run_sharded_sequential(circuit, blocks, num_shards):
    """Execute the shard plan one stage at a time, timing each shard alone.

    Each :class:`~repro.campaign.pipeline.ShardScanStage` runs alone, and
    the process's compiled kernels are dropped before every repeat, so
    every shard compiles its own kernel -- exactly what a real pool worker
    pays -- and its ``seconds`` is an honest single-CPU measurement
    unpolluted by time-slicing against concurrent workers.
    """
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    _, nodes = _shard_nodes(circuit, fault_list, blocks, num_shards)
    start = time.perf_counter()
    shard_seconds = []
    for node in nodes:
        per_repeat = []
        for _ in range(REPEATS):
            # Drop the compiled kernels so each repeat pays the full worker
            # cost (kernel + cone-plan compilation).
            KERNEL_CACHE.clear()
            per_repeat.append(node.task.run().seconds)
        shard_seconds.append(min(per_repeat))
    wall = time.perf_counter() - start
    return wall, shard_seconds


def _run_sharded_pool(circuit, blocks, num_workers):
    """Plan, pool-drain and merge the shard stages, timed end to end."""
    boundaries = list(accumulate(block.num_patterns for block in blocks))
    seconds = []
    for _ in range(REPEATS):
        fault_list = collapse_stuck_at(circuit).to_fault_list()
        start = time.perf_counter()
        positions, nodes = _shard_nodes(circuit, fault_list, blocks, num_workers)
        run = make_scheduler(num_workers).run(nodes)
        merged = merge_first_detections(run.value(node.key) for node in nodes)
        build_simulation_result(fault_list, positions, merged, boundaries)
        seconds.append(time.perf_counter() - start)
    return min(seconds), fault_list


def run() -> dict:
    recipe, circuit, blocks = _build_workload()
    fault_count = len(collapse_stuck_at(circuit).representatives)

    serial_seconds, serial_list = _run_serial(circuit, blocks)
    _, shard_seconds = _run_sharded_sequential(circuit, blocks, WORKERS)
    sequential_seconds = sum(shard_seconds)
    pool_seconds, pool_list = _run_sharded_pool(circuit, blocks, WORKERS)

    # The benchmark doubles as a full-scale equivalence check.
    serial_snapshot = _fault_snapshot(serial_list)
    pool_snapshot = _fault_snapshot(pool_list)
    assert pool_snapshot == serial_snapshot, "sharded campaign diverged from serial"
    coverage = serial_list.coverage()

    projected_speedup = serial_seconds / max(shard_seconds)
    wall_speedup = serial_seconds / pool_seconds
    sharding_overhead = sequential_seconds / serial_seconds

    runs = [
        {
            "mode": "serial kernel",
            "seconds": round(serial_seconds, 4),
            "patterns_per_sec": round(PATTERNS / serial_seconds, 1),
        },
        {
            "mode": f"{WORKERS} shards, sequential",
            "seconds": round(sequential_seconds, 4),
            "patterns_per_sec": round(PATTERNS / sequential_seconds, 1),
        },
        {
            "mode": f"{WORKERS} shards, {WORKERS}-worker pool",
            "seconds": round(pool_seconds, 4),
            "patterns_per_sec": round(PATTERNS / pool_seconds, 1),
        },
    ]

    payload = {
        "core": recipe.name,
        "gates": circuit.gate_count(),
        "flops": circuit.flop_count(),
        "collapsed_faults": fault_count,
        "patterns": PATTERNS,
        "block_size": BLOCK_SIZE,
        "workers": WORKERS,
        "coverage": round(coverage, 12),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "runs": runs,
        "shard_seconds": [round(s, 4) for s in shard_seconds],
        "sharding_overhead_vs_serial": round(sharding_overhead, 3),
        "speedup_projected_4w": round(projected_speedup, 2),
        "speedup_wall_4w": round(wall_speedup, 2),
        "bit_identical_to_serial": True,
        "target_speedup": TARGET_SPEEDUP,
        "note": (
            "speedup_projected_4w = serial / max(per-shard compute): the "
            "shard-plan speedup with one real CPU per worker; speedup_wall_4w "
            "is what this host measured and is ~1x on a single-CPU container"
        ),
    }
    path = write_bench_json("campaign", payload)
    print_rows(f"Campaign fault-simulation throughput -- {recipe.name}", runs)
    print(
        f"projected {WORKERS}-worker speedup: {projected_speedup:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x), wall on {payload['cpus_available']} "
        f"CPU(s): {wall_speedup:.2f}x, shard balance {min(shard_seconds):.3f}"
        f"-{max(shard_seconds):.3f}s -> {path.name}"
    )
    return payload


def test_campaign_speedup_recorded():
    """Regression guard: the shard plan keeps its >= 2.5x projected speedup
    (and bit-identity) on record.  The wall-clock speedup is only asserted
    (or meaningfully reportable) when the host exposes >= 4 cores: the
    recorded wall number on the single-CPU CI container is four workers
    time-sharing one core and says nothing about the shard plan."""
    payload = run()
    assert payload["bit_identical_to_serial"]
    if smoke_mode():
        return
    assert payload["speedup_projected_4w"] >= TARGET_SPEEDUP
    if (payload["cpus_available"] or 0) >= WORKERS and (
        payload["cpu_count"] or 0
    ) >= WORKERS:
        assert payload["speedup_wall_4w"] >= 2.0


if __name__ == "__main__":
    payload = run()
    ok = smoke_mode() or payload["speedup_projected_4w"] >= TARGET_SPEEDUP
    raise SystemExit(0 if ok else 1)
