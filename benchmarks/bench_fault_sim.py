"""Benchmark: fault-simulation throughput -- compiled kernel vs the seed engine.

Measures PPSFP stuck-at fault-simulation throughput (patterns/sec and
gate-evals/sec) on the largest generated benchmark core (the scaled Core Y
stand-in) for:

* the **reference** engine (:mod:`repro.oracle.reference`), which
  preserves the pre-kernel name-keyed ``dict[str, int]`` implementation, at
  the seed's default 64-pattern blocks and at 256,
* the **compiled kernel** engine (:class:`repro.faults.FaultSimulator`) at
  block widths 64 / 256 / 1024,
* plus the streamed STUMPS pattern-generation path
  (``generate_packed_blocks`` vs per-pattern ``generate_patterns`` dicts).

The measurements are persisted to ``benchmarks/BENCH_fault_sim.json`` via
:func:`conftest.write_bench_json`, so future PRs can track the performance
trajectory.  The headline regression guard: the kernel at block_size=256 must
stay >= 3x faster than the seed engine on the same workload.

Run as a script (writes the JSON):

    PYTHONPATH=src python benchmarks/bench_fault_sim.py

or through pytest:

    PYTHONPATH=src pytest benchmarks/bench_fault_sim.py -s
"""

from __future__ import annotations

import random
import time

from repro.bist import StumpsArchitecture
from repro.cores import core_y_recipe
from repro.faults import FaultSimulator, collapse_stuck_at
from repro.scan import build_scan_chains
from repro.simulation import iter_blocks
from repro.oracle import ReferenceFaultSimulator, generate_patterns, simulate_patterns

from conftest import print_rows, scaled, smoke_mode, write_bench_json

#: Patterns per engine run (every engine simulates this same workload;
#: the bench-smoke tier shrinks it to an exercise-the-code size).
PATTERNS = scaled(512, 64)
#: The headline acceptance threshold: kernel@256 vs seed engine.
TARGET_SPEEDUP = 3.0


def _build_workload():
    recipe = core_y_recipe()
    circuit = recipe.build().circuit
    rng = random.Random(20050307)
    stimulus = circuit.stimulus_nets()
    patterns = [
        {net: rng.randint(0, 1) for net in stimulus} for _ in range(PATTERNS)
    ]
    return recipe, circuit, patterns


def _run_reference(circuit, patterns, block_size):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    engine = ReferenceFaultSimulator(circuit)
    start = time.perf_counter()
    engine.simulate(fault_list, patterns, block_size=block_size)
    seconds = time.perf_counter() - start
    return seconds, engine.gate_evals, fault_list.coverage()

def _run_kernel(circuit, patterns, block_size):
    fault_list = collapse_stuck_at(circuit).to_fault_list()
    engine = FaultSimulator(circuit)
    stimulus = circuit.stimulus_nets()
    blocks = list(iter_blocks(patterns, block_size=block_size, nets=stimulus))
    start = time.perf_counter()
    engine.simulate_blocks(fault_list, blocks)
    seconds = time.perf_counter() - start
    return seconds, engine.gate_evals, fault_list.coverage()


def _run_pattern_generation(circuit, count, block_size):
    """Streamed packed generation vs per-pattern dicts on the same STUMPS."""
    architecture = build_scan_chains(circuit, total_chains=14)

    stumps = StumpsArchitecture(architecture, seed=9)
    start = time.perf_counter()
    generate_patterns(stumps, count)
    dict_seconds = time.perf_counter() - start

    stumps = StumpsArchitecture(architecture, seed=9)
    start = time.perf_counter()
    for _ in stumps.generate_packed_blocks(count, block_size=block_size):
        pass
    packed_seconds = time.perf_counter() - start
    return dict_seconds, packed_seconds


def run() -> dict:
    recipe, circuit, patterns = _build_workload()
    fault_count = len(collapse_stuck_at(circuit).representatives)

    runs = []
    coverages = set()
    for engine, block_size, runner in (
        ("reference(seed)", 64, _run_reference),
        ("reference(seed)", 256, _run_reference),
        ("kernel", 64, _run_kernel),
        ("kernel", 256, _run_kernel),
        ("kernel", 1024, _run_kernel),
    ):
        seconds, gate_evals, coverage = runner(circuit, patterns, block_size)
        coverages.add(round(coverage, 12))
        runs.append(
            {
                "engine": engine,
                "block_size": block_size,
                "seconds": round(seconds, 4),
                "patterns_per_sec": round(PATTERNS / seconds, 1),
                "gate_evals_per_sec": round(gate_evals / seconds, 0),
            }
        )
    assert len(coverages) == 1, f"engines disagreed on coverage: {coverages}"

    def seconds_of(engine, block_size):
        return next(
            r["seconds"]
            for r in runs
            if r["engine"] == engine and r["block_size"] == block_size
        )

    speedup_vs_seed_default = seconds_of("reference(seed)", 64) / seconds_of("kernel", 256)
    speedup_same_block = seconds_of("reference(seed)", 256) / seconds_of("kernel", 256)

    gen_dict_seconds, gen_packed_seconds = _run_pattern_generation(
        circuit, 256, block_size=256
    )

    payload = {
        "core": recipe.name,
        "gates": circuit.gate_count(),
        "flops": circuit.flop_count(),
        "collapsed_faults": fault_count,
        "patterns": PATTERNS,
        "coverage": next(iter(coverages)),
        "runs": runs,
        "speedup_kernel256_vs_seed_default": round(speedup_vs_seed_default, 2),
        "speedup_kernel256_vs_reference256": round(speedup_same_block, 2),
        "pattern_generation": {
            "patterns": 256,
            "dict_seconds": round(gen_dict_seconds, 4),
            "packed_seconds": round(gen_packed_seconds, 4),
            "speedup": round(gen_dict_seconds / gen_packed_seconds, 2),
        },
        "target_speedup": TARGET_SPEEDUP,
    }
    path = write_bench_json("fault_sim", payload)
    print_rows(f"Fault-simulation throughput -- {recipe.name}", runs)
    print(
        f"kernel@256 vs seed default: {speedup_vs_seed_default:.2f}x, "
        f"same-block-size: {speedup_same_block:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x) -> {path.name}"
    )
    return payload


def test_fault_sim_speedup_recorded():
    """Regression guard: the compiled kernel keeps its >= 3x speedup on record.
    The smoke tier only exercises the harness: a tiny workload measures
    fixed costs, not throughput, so the speedup bars are not asserted."""
    payload = run()
    if smoke_mode():
        return
    assert payload["speedup_kernel256_vs_seed_default"] >= TARGET_SPEEDUP
    assert payload["speedup_kernel256_vs_reference256"] >= TARGET_SPEEDUP


if __name__ == "__main__":
    payload = run()
    ok = smoke_mode() or payload["speedup_kernel256_vs_seed_default"] >= TARGET_SPEEDUP
    raise SystemExit(0 if ok else 1)
